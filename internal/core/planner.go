package core

// The evaluation seam and the one node model: how a problem's point
// ranges get evaluated, and sent. A Planner compiles the problem once
// per prime into a plan.Plan and memoizes it for as long as the planner
// lives — one engine run (every chunk task, node and repair round shares
// the compile) or one ctrl worker daemon (every manifest of one workload
// shares it). evaluateRangeInto is the single block loop that drives a
// plan over a range. Executor is the procedure every Knight runs, and
// the only one: it evaluates its ranges on a pool and sends the shares
// under the run's fault record, for the engine when the transport has no
// assigner of its own and for a ctrl worker daemon on the manifests its
// coordinator sends.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"camelot/internal/ff"
	"camelot/internal/plan"
)

// CompiledProblem is a Problem whose per-prime setup compiles into a
// reusable plan.Plan — the extension point for block evaluation, and
// what every in-tree problem implements. A Problem without Compile is
// evaluated through a pointwise plan over its Evaluate.
type CompiledProblem interface {
	Problem
	plan.Compiler
}

// Planner memoizes a problem's compiled plans per prime. Safe for
// concurrent use (the engine's chunk tasks call For from every pool
// worker); compilation is single-flight per prime.
type Planner struct {
	p Problem

	mu    sync.Mutex
	plans map[uint64]*planEntry
}

// planEntry is one prime's single-flight slot: the first For compiles
// under the once, every later For reuses the result (compile errors are
// deterministic in the problem geometry, so they memoize too).
type planEntry struct {
	once sync.Once
	plan plan.Plan
	err  error
}

// NewPlanner returns an empty planner for p.
func NewPlanner(p Problem) *Planner {
	return &Planner{p: p, plans: make(map[uint64]*planEntry)}
}

// For returns the plan for prime q, compiling it on first use.
func (pl *Planner) For(q uint64) (plan.Plan, error) {
	pl.mu.Lock()
	e, ok := pl.plans[q]
	if !ok {
		e = &planEntry{}
		pl.plans[q] = e
	}
	pl.mu.Unlock()
	e.once.Do(func() { e.plan, e.err = pl.compile(q) })
	return e.plan, e.err
}

func (pl *Planner) compile(q uint64) (plan.Plan, error) {
	cp, ok := pl.p.(plan.Compiler)
	if !ok {
		return pointwise{p: pl.p, q: q}, nil
	}
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	return cp.Compile(f)
}

// pointwise is the plan of a Problem that does not compile: each block
// is a loop over Evaluate.
type pointwise struct {
	p Problem
	q uint64
}

func (pw pointwise) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	rows := make([][]uint64, len(xs))
	for i, x := range xs {
		vec, err := pw.p.Evaluate(pw.q, x)
		if err != nil {
			return nil, fmt.Errorf("evaluating P(%d): %w", x, err)
		}
		rows[i] = vec
	}
	return rows, nil
}

// Block-size autotuning. A block is the cancellation quantum of
// evaluation — ctx is only observed between EvaluateBlock calls — so
// the right size depends on how expensive a point is: cheap points want
// huge blocks (amortize per-block setup), expensive points want small
// ones (bounded abort latency). The first chunk of each range is a small
// probe whose measured duration sets the steady-state size, targeting
// targetBlockNs per block and clamped to [minBatchChunk, maxBatchChunk].
const (
	// probeChunk is the first-chunk probe size.
	probeChunk = 32
	// minBatchChunk / maxBatchChunk clamp the autotuned size.
	minBatchChunk = 16
	maxBatchChunk = 4096
	// targetBlockNs is the steady-state per-block duration the autotuner
	// aims for: long enough to amortize setup, short enough that
	// cancellation latency stays human-scale.
	targetBlockNs = 25_000_000
)

// tuneBlockSize derives the steady-state block size from the probe
// chunk's measured duration.
func tuneBlockSize(elapsed time.Duration, probePoints int) int {
	perPoint := elapsed.Nanoseconds() / int64(probePoints)
	if perPoint <= 0 {
		return maxBatchChunk
	}
	bs := int(targetBlockNs / perPoint)
	if bs < minBatchChunk {
		return minBatchChunk
	}
	if bs > maxBatchChunk {
		return maxBatchChunk
	}
	return bs
}

// evaluateRangeInto evaluates the point range [lo, hi) directly into
// dst[coord][x-base]: several chunk tasks of one range write disjoint
// slices of one shared message buffer.
// Each range task probes its block size for itself: the probe is real
// work, and per-point cost can differ across primes.
func evaluateRangeInto(ctx context.Context, pl *Planner, q uint64, lo, hi, width int, dst [][]uint64, base int) error {
	bp, err := pl.For(q)
	if err != nil {
		return fmt.Errorf("compiling plan mod %d: %w", q, err)
	}
	chunk, tuned := probeChunk, false
	// One chunk buffer for the whole range; EvaluateBlock must not
	// retain its argument (see the Plan contract).
	var xs []uint64
	for start := lo; start < hi; {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+chunk, hi)
		if cap(xs) < end-start {
			xs = make([]uint64, end-start)
		}
		xs = xs[:end-start]
		for i := range xs {
			xs[i] = uint64(start + i)
		}
		probeStart := time.Now()
		rows, err := bp.EvaluateBlock(xs)
		if err != nil {
			return fmt.Errorf("evaluating block [%d,%d) mod %d: %w", start, end, q, err)
		}
		if !tuned {
			chunk = tuneBlockSize(time.Since(probeStart), end-start)
			tuned = true
		}
		if len(rows) != len(xs) {
			return fmt.Errorf("EvaluateBlock returned %d rows, want %d", len(rows), len(xs))
		}
		for i, vec := range rows {
			if len(vec) != width {
				return fmt.Errorf("EvaluateBlock row %d has %d coords, want %d", i, len(vec), width)
			}
			for c, v := range vec {
				dst[c][start-base+i] = v % q
			}
		}
		start = end
	}
	return nil
}

// Executor evaluates point ranges on a pool and delivers them as their
// sponsors would send them under the fault record. It is the in-process
// RemoteAssigner.
type Executor struct {
	Planner *Planner // evaluates every range, one compile per prime
	// Pool runs the chunk tasks, each call's as one task set of
	// scheduling weight Weight (see Pool.Start; below 1 counts as 1).
	Pool   *Pool
	Weight int
	Send   func(context.Context, NodeShares) error // delivers one copy of a message
	// Lost, when set, is told of every range the fault record loses —
	// before, and instead of, evaluating it.
	Lost func(AssignSpec) error
}

// prepNode tracks one range's message across its chunk tasks.
type prepNode struct {
	msg       NodeShares
	spec      AssignSpec
	copies    int
	delay     time.Duration
	remaining atomic.Int32
	elapsedNS atomic.Int64
}

// prepChunk is one evaluation task: a slice of one range for one
// prime. node indexes the call's prepNode slice.
type prepChunk struct {
	node, prime int
	lo, hi      int
}

// AssignRanges implements RemoteAssigner. Each range's fate is drawn
// first (Adversary.fate): a range the network loses is reported to Lost
// and never evaluated. The live ones are put on the pool, and each
// message is sent, after Adversary.Apply, as its last chunk completes;
// progress counts every chunk's (point, prime) units. wait returns once
// every chunk has run and every held copy has been sent or abandoned,
// with the first failure; a failed call abandons its held copies at
// once.
//
// The work unit is a (range, prime, sub-range) chunk rather than a whole
// node: when the pool is wider than the assignment list — a single-node
// run on a many-core box, say — idle workers take sub-chunks of the same
// range, so K bounds the paper's work *split* but never the machine's
// parallelism. Chunk boundaries cannot change results: every point is
// evaluated independently and written to its own slot (and the Plan
// contract requires block results to match point-wise evaluation bit
// for bit).
func (x *Executor) AssignRanges(ctx context.Context, specs []AssignSpec, progress func(units int)) (wait func() error, err error) {
	ctx, abandon := context.WithCancel(ctx)
	parts := 1
	if w := x.Pool.Width(); w > len(specs) {
		parts = (w + len(specs) - 1) / len(specs)
	}
	nodes := make([]*prepNode, len(specs))
	var chunks []prepChunk
	for i, a := range specs {
		st := &prepNode{spec: a, msg: NodeShares{
			ID: a.Owner, From: a.Sponsor, Round: a.Round,
			Lo: a.Lo, Hi: a.Hi,
			Vals: make([][][]uint64, len(a.Primes)),
		}}
		if st.copies, st.delay = a.Adversary.fate(st.msg.Origin()); st.copies == 0 {
			// The network loses this message whatever it says.
			if x.Lost != nil {
				if err := x.Lost(a); err != nil {
					abandon()
					return nil, err
				}
			}
			continue
		}
		before := len(chunks)
		for pi := range a.Primes {
			st.msg.Vals[pi] = make([][]uint64, a.Width)
			for c := range a.Width {
				st.msg.Vals[pi][c] = make([]uint64, a.Hi-a.Lo)
			}
			for _, cut := range cutRange(a.Lo, a.Hi, parts) {
				chunks = append(chunks, prepChunk{node: i, prime: pi, lo: cut[0], hi: cut[1]})
			}
		}
		st.remaining.Store(int32(len(chunks) - before))
		nodes[i] = st
	}
	var held heldSends
	evaluated := x.Pool.Start(ctx, len(chunks), x.Weight, func(ti int) error {
		chk := chunks[ti]
		st := nodes[chk.node]
		start := time.Now()
		err := evaluateRangeInto(ctx, x.Planner, st.spec.Primes[chk.prime], chk.lo, chk.hi, st.spec.Width,
			st.msg.Vals[chk.prime], st.msg.Lo)
		st.elapsedNS.Add(int64(time.Since(start)))
		if err != nil {
			return fmt.Errorf("node %d: %w", st.msg.Origin(), err)
		}
		if progress != nil {
			progress(chk.hi - chk.lo)
		}
		if st.remaining.Add(-1) == 0 {
			// Last chunk of this message: it is complete (every other
			// chunk's write happened-before the counter reached zero).
			st.msg.Elapsed = time.Duration(st.elapsedNS.Load())
			st.spec.Adversary.Apply(&st.msg, st.spec.Primes, st.spec.K)
			return deliver(ctx, x.Send, st.msg, st.copies, st.delay, &held)
		}
		return nil
	})
	return func() error {
		defer abandon()
		if err := evaluated(); err != nil {
			abandon()
			held.wait()
			return err
		}
		return held.wait()
	}, nil
}

// deliver is how a sender acts on its message's fate: copies sends
// through send, at once or, when delay > 0, after the delay on a
// goroutine held counts. A held copy holds the message, not the sender,
// and is abandoned when ctx ends, which is how the end of its round
// keeps it out of a later round's gather.
func deliver(ctx context.Context, send func(context.Context, NodeShares) error, m NodeShares, copies int, delay time.Duration, held *heldSends) error {
	sendCopies := func() error {
		for range copies {
			if err := send(ctx, m); err != nil {
				return err
			}
		}
		return nil
	}
	if delay <= 0 {
		return sendCopies()
	}
	held.wg.Add(1)
	go func() {
		defer held.wg.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return
		}
		err := sendCopies()
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			held.mu.Lock()
			if held.err == nil {
				held.err = err
			}
			held.mu.Unlock()
		}
	}()
	return nil
}

// heldSends are the deliveries deliver holds for a delay. The zero
// value is ready to use.
type heldSends struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error // the first failure other than the end of the send context
}

// wait returns once every held delivery has been sent or abandoned,
// with the first that failed.
func (h *heldSends) wait() error {
	h.wg.Wait()
	return h.err
}

// cutRange splits [lo, hi) into at most parts non-empty, contiguous,
// near-equal pieces, in order.
func cutRange(lo, hi, parts int) [][2]int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		return [][2]int{{lo, hi}}
	}
	out := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		a := lo + i*n/parts
		b := lo + (i+1)*n/parts
		if a < b {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}
