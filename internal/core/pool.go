package core

// The scheduler layer: the bounded worker pool every engine run executes
// its chunk and decode tasks on. A Cluster shares one long-lived pool
// across all its runs; a one-shot core.Run builds a private one for the
// run. Either way the width bounds concurrency, and the pool arbitrates
// *between* runs — task sets from concurrent Run calls are interleaved
// round-robin, so a wide run cannot starve a narrow one. This is the
// fairness a multi-tenant cluster needs when jobs of very different
// sizes are in flight together. The round-robin is
// weight-aware: a run submitted with weight w claims w tasks per
// scheduling cycle where a weight-1 run claims one, so a proof service
// can give paying tenants a larger share of the pool without ever
// starving the rest (every run with work left claims at least one task
// per cycle).

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// ErrPoolClosed is returned by Pool.Run once the pool has been closed.
var ErrPoolClosed = errors.New("core: pool closed")

// Pool is a long-lived bounded worker pool shared by concurrent engine
// runs. Construct with NewPool; the zero value is not usable. Tasks
// must not call Run on their own pool (a width-1 pool would deadlock).
type Pool struct {
	width int

	mu      sync.Mutex
	cond    *sync.Cond
	runs    []*poolRun // task sets with work left or tasks in flight
	rr      int        // round-robin cursor into runs
	closed  bool
	wg      sync.WaitGroup
	claimed func() // when set (by tests, before any Run), runs as a task is claimed
}

// poolRun is one Run call's task set.
type poolRun struct {
	ctx      context.Context
	task     func(id int) error
	n        int // total tasks
	next     int // next unclaimed id; == n once nothing is left to claim
	active   int // claimed tasks still executing
	weight   int // tasks claimable per scheduling cycle (>= 1)
	credit   int // claims left this cycle; refilled to weight when the cycle turns
	err      error
	finished bool
	done     chan struct{}
}

// NewPool starts a pool of the given width (0 = GOMAXPROCS) and returns
// it running. Callers own the pool and must Close it to stop the
// workers.
func NewPool(width int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p := &Pool{width: width}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(width)
	for w := 0; w < width; w++ {
		go p.worker()
	}
	return p
}

// Width returns the number of workers.
func (p *Pool) Width() int { return p.width }

// Run executes task(0..n-1) on the pool and returns the first task
// error (or the context error). It blocks until every *claimed* task
// has returned, so callers may reuse task-captured state afterwards; a
// task error or cancellation only stops unclaimed tasks from starting.
// Concurrent Run calls are served fairly.
func (p *Pool) Run(ctx context.Context, n int, task func(id int) error) error {
	return p.RunWeighted(ctx, n, 1, task)
}

// RunWeighted is Run with a scheduling weight: each cycle of the pool's
// between-runs round-robin lets this task set claim up to weight tasks
// where a plain Run claims one. Weights below 1 are clamped to 1, so a
// weighted run never starves and an unweighted one never stalls.
func (p *Pool) RunWeighted(ctx context.Context, n, weight int, task func(id int) error) error {
	return p.Start(ctx, n, weight, task)()
}

// Start submits a task set as RunWeighted does but returns at once;
// wait blocks until the set is done, as RunWeighted would, and returns
// its verdict. The set joins the round-robin before Start returns, so
// work the caller goes on to submit queues behind it. Until wait is
// called, cancellation fails the set's unstarted tasks one claim at a
// time; wait withdraws them at once.
func (p *Pool) Start(ctx context.Context, n, weight int, task func(id int) error) (wait func() error) {
	if n <= 0 {
		// An empty task set has nothing left to do: it completed.
		return func() error { return nil }
	}
	if weight < 1 {
		weight = 1
	}
	r := &poolRun{ctx: ctx, task: task, n: n, weight: weight, credit: weight, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return func() error { return ErrPoolClosed }
	}
	p.runs = append(p.runs, r)
	p.mu.Unlock()
	p.cond.Broadcast()
	return func() error {
		select {
		case <-r.done:
		case <-ctx.Done():
			// Withdraw the unclaimed remainder; tasks already executing are
			// expected to observe ctx themselves, and the run completes (and
			// closes done) once they drain. A run whose tasks were all
			// claimed (or that already finished) keeps its own outcome: a
			// cancellation arriving after the last task was handed out has
			// nothing to withdraw and must not turn success into failure.
			p.mu.Lock()
			if !r.finished && r.err == nil && r.next < r.n {
				r.fail(ctx.Err())
				p.finishLocked(r)
			}
			p.mu.Unlock()
			<-r.done
		}
		// r.err is nil only if no task failed and no withdrawal happened —
		// i.e. all n tasks ran to completion — so it is the whole verdict:
		// a context cancelled just after the last task finished does not
		// retroactively fail a completed run.
		return r.err
	}
}

// Close drains the pool: new Run calls are rejected, task sets already
// submitted run to completion, then the workers exit. It blocks until
// the drain is done.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// fail records the first error and withdraws unclaimed tasks. Callers
// hold p.mu.
func (r *poolRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.next = r.n
}

// finishLocked completes and removes the run if nothing is left to do.
// Callers hold p.mu.
func (p *Pool) finishLocked(r *poolRun) {
	if r.finished || r.next < r.n || r.active > 0 {
		return
	}
	r.finished = true
	for i, q := range p.runs {
		if q == r {
			p.runs = append(p.runs[:i], p.runs[i+1:]...)
			if p.rr > i {
				p.rr--
			}
			break
		}
	}
	close(r.done)
	// Waiting workers re-check state: with the pool closed the last
	// removal is what lets them exit.
	p.cond.Broadcast()
}

// pickLocked claims nothing; it returns the next run with an unclaimed
// task and scheduling credit left, advancing the round-robin cursor and
// spending one credit. When every run with work left is out of credit
// the cycle turns: credits refill to each run's weight and the scan
// repeats (guaranteed to pick then). Callers hold p.mu.
func (p *Pool) pickLocked() *poolRun {
	if r := p.scanLocked(); r != nil {
		return r
	}
	// No run had both work and credit. If any has work at all, start a
	// new cycle; otherwise there is nothing to pick.
	hasWork := false
	for _, r := range p.runs {
		if r.next < r.n {
			hasWork = true
		}
		r.credit = r.weight
	}
	if !hasWork {
		return nil
	}
	return p.scanLocked()
}

// scanLocked is one round-robin pass: the first run from the cursor
// with an unclaimed task and credit left wins and pays one credit.
func (p *Pool) scanLocked() *poolRun {
	for i := 0; i < len(p.runs); i++ {
		r := p.runs[(p.rr+i)%len(p.runs)]
		if r.next < r.n && r.credit > 0 {
			r.credit--
			p.rr = (p.rr + i + 1) % len(p.runs)
			return r
		}
	}
	return nil
}

func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		r := p.pickLocked()
		if r == nil {
			if p.closed && len(p.runs) == 0 {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		id := r.next
		r.next++
		r.active++
		p.mu.Unlock()
		if p.claimed != nil {
			p.claimed()
		}
		var err error
		if e := r.ctx.Err(); e != nil {
			err = e
		} else {
			err = r.task(id)
		}
		p.mu.Lock()
		r.active--
		if err != nil {
			r.fail(err)
		}
		p.finishLocked(r)
	}
}
