package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBoundsParallelism(t *testing.T) {
	const width, tasks = 3, 24
	p := NewPool(width)
	defer p.Close()
	var cur, peak atomic.Int64
	err := p.Run(context.Background(), tasks, func(int) error {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > width {
		t.Fatalf("observed %d concurrent tasks, pool width is %d", got, width)
	}
}

func TestPoolRunsEveryTaskExactlyOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const tasks = 200
	counts := make([]atomic.Int32, tasks)
	if err := p.Run(context.Background(), tasks, func(id int) error {
		counts[id].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for id := range counts {
		if n := counts[id].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", id, n)
		}
	}
}

func TestPoolInterleavesConcurrentRuns(t *testing.T) {
	// A width-1 pool given two task sets must alternate between them
	// (round-robin), not drain the first before touching the second.
	p := NewPool(1)
	defer p.Close()
	var order []int
	var mu sync.Mutex
	record := func(run int) func(int) error {
		return func(int) error {
			mu.Lock()
			order = append(order, run)
			mu.Unlock()
			return nil
		}
	}
	// Block the worker until both runs are registered so the schedule
	// is deterministic.
	gate := make(chan struct{})
	started := make(chan struct{})
	go p.Run(context.Background(), 1, func(int) error {
		close(started)
		<-gate
		return nil
	})
	<-started
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Run(context.Background(), 3, record(i))
		}(i)
	}
	// Give both Run calls time to register their queues, then release.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	// Exact interleaving 0,1,0,1,... or 1,0,1,0,...: round-robin with
	// one task claimed per turn.
	if len(order) != 6 {
		t.Fatalf("ran %d tasks, want 6", len(order))
	}
	for i := 2; i < len(order); i++ {
		if order[i] != order[i-2] {
			t.Fatalf("schedule %v is not round-robin", order)
		}
	}
	if order[0] == order[1] {
		t.Fatalf("schedule %v lets one run hog the worker", order)
	}
}

func TestPoolFirstErrorStopsRun(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	boom := errors.New("boom")
	var ran atomic.Int64
	err := p.Run(context.Background(), 100, func(id int) error {
		ran.Add(1)
		if id == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n > 4 {
		t.Fatalf("pool kept scheduling this run after its error: %d tasks ran", n)
	}
}

func TestPoolErrorInOneRunDoesNotAffectOthers(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	boom := errors.New("boom")
	var wg sync.WaitGroup
	var okErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		badErr = p.Run(context.Background(), 50, func(id int) error {
			if id == 0 {
				return boom
			}
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		okErr = p.Run(context.Background(), 50, func(id int) error {
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}()
	wg.Wait()
	if !errors.Is(badErr, boom) {
		t.Fatalf("failing run returned %v, want boom", badErr)
	}
	if okErr != nil {
		t.Fatalf("healthy run returned %v, want nil", okErr)
	}
}

func TestPoolRunAfterCloseFails(t *testing.T) {
	p := NewPool(1)
	p.Close()
	if err := p.Run(context.Background(), 1, func(int) error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseDrainsInFlightRun(t *testing.T) {
	p := NewPool(2)
	var done atomic.Int64
	runDone := make(chan error, 1)
	started := make(chan struct{})
	var once sync.Once
	go func() {
		runDone <- p.Run(context.Background(), 10, func(int) error {
			once.Do(func() { close(started) })
			time.Sleep(2 * time.Millisecond)
			done.Add(1)
			return nil
		})
	}()
	<-started
	p.Close() // must block until all 10 tasks completed
	if n := done.Load(); n != 10 {
		t.Fatalf("Close returned with %d/10 tasks done", n)
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}

func TestPoolRunHonorsCancellation(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := p.Run(ctx, 1000, func(int) error {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled Run took %v", elapsed)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatal("cancellation did not withdraw unclaimed tasks")
	}
}

// TestRunPrivatePool pins what a run without Options.Pool gets: a pool
// of its own, MaxParallelism wide, closed when the run ends — and the
// same proof at any width.
func TestRunPrivatePool(t *testing.T) {
	p := testProblem()
	en, err := newEngine(p, Options{Nodes: 2, MaxParallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := en.pool.Width(); got != 3 {
		t.Fatalf("private pool width = %d, want MaxParallelism 3", got)
	}
	en.close()
	if err := en.pool.Run(context.Background(), 1, func(int) error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("private pool still accepts work after the run closed: %v", err)
	}

	serial, _, err := Run(context.Background(), p, Options{Nodes: 6, FaultTolerance: 3, MaxParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, _, err := Run(context.Background(), p, Options{Nodes: 6, FaultTolerance: 3, MaxParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := proofsEqual(serial, wide); err != nil {
		t.Fatalf("worker pool size changed the proof: %v", err)
	}
}

func TestRunWithSharedPoolMatchesPrivate(t *testing.T) {
	p := testProblem()
	plain, _, err := Run(context.Background(), p, Options{Nodes: 3, FaultTolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()
	pooled, _, err := Run(context.Background(), p, Options{Nodes: 3, FaultTolerance: 2, Pool: pool, Geometry: NewGeometryCache()})
	if err != nil {
		t.Fatal(err)
	}
	q := plain.Primes[0]
	for w := range plain.Coeffs[q] {
		for j := range plain.Coeffs[q][w] {
			if plain.Coeffs[q][w][j] != pooled.Coeffs[q][w][j] {
				t.Fatal("shared pool + geometry cache changed the proof")
			}
		}
	}
}

func TestGeometryCacheReusesCodesAndPrimes(t *testing.T) {
	gc := NewGeometryCache()
	p1, err := gc.choosePrimes(2, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := gc.choosePrimes(2, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &p2[0] {
		t.Fatal("prime selection not cached")
	}
	direct, err := ChoosePrimes(2, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if p1[i] != direct[i] {
			t.Fatal("cached primes differ from direct selection")
		}
	}
	c1, err := gc.code(p1[0], 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := gc.code(p1[0], 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("code not cached")
	}
	if c3, err := gc.code(p1[0], 16, 8); err != nil || c3 == c1 {
		t.Fatalf("distinct geometry must build a distinct code (err=%v)", err)
	}
	// Nil cache falls through to direct computation.
	var nilGC *GeometryCache
	if _, err := nilGC.choosePrimes(1, 1<<20, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := nilGC.code(p1[0], 16, 7); err != nil {
		t.Fatal(err)
	}
}

// TestGeometryCacheFlushesByBytes: the code memo is bounded by the bytes
// its codes hold, not by how many there are — inserting past the budget
// drops the epoch, a code over the whole budget is never kept, and a
// flushed geometry rebuilds to a code that decodes bit-identically.
func TestGeometryCacheFlushesByBytes(t *testing.T) {
	primes, err := ChoosePrimes(1, 1<<20, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := primes[0]
	const e, d = 300, 200
	gc := NewGeometryCache()
	first, err := gc.code(q, e, d)
	if err != nil {
		t.Fatal(err)
	}
	size := first.Footprint()
	if size < 8*e*5 {
		t.Fatalf("a length-%d code reports %d bytes: the subproduct tree is not counted", e, size)
	}
	if gc.codeBytes != size {
		t.Fatalf("codeBytes = %d after one insert of %d bytes", gc.codeBytes, size)
	}
	msg := make([]uint64, d+1)
	for i := range msg {
		msg[i] = uint64(3*i+1) % q
	}
	word, err := first.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 10+first.CorrectionRadius(); i++ {
		word[i] = (word[i] + 1) % q
	}
	wantMsg, wantWord, wantLocs, err := first.Decode(word)
	if err != nil {
		t.Fatal(err)
	}

	// Room for the first code and two more of its size: the fourth insert
	// passes the budget and starts a new epoch holding only itself.
	gc.codeBudget = 3*size + size/2
	for i := 1; i <= 2; i++ {
		if _, err := gc.code(q, e, d-i); err != nil {
			t.Fatal(err)
		}
	}
	if again, _ := gc.code(q, e, d); again != first {
		t.Fatal("code evicted while the cache was within its budget")
	}
	if len(gc.codes) != 3 {
		t.Fatalf("%d codes cached within budget, want 3", len(gc.codes))
	}
	if _, err := gc.code(q, e, d-3); err != nil {
		t.Fatal(err)
	}
	if len(gc.codes) != 1 || gc.codeBytes > gc.codeBudget {
		t.Fatalf("after passing the budget: %d codes, %d bytes (budget %d); want a flushed epoch of one",
			len(gc.codes), gc.codeBytes, gc.codeBudget)
	}
	rebuilt, err := gc.code(q, e, d)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == first {
		t.Fatal("flushed code was not rebuilt")
	}
	gotMsg, gotWord, gotLocs, err := rebuilt.Decode(word)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotMsg, wantMsg) || !slices.Equal(gotWord, wantWord) || !slices.Equal(gotLocs, wantLocs) {
		t.Fatal("a rebuilt code decodes the same word differently")
	}

	// A code larger than the whole budget serves its run uncached.
	gc.codeBudget = size - 1
	before := len(gc.codes)
	big, err := gc.code(q, e, d-4)
	if err != nil || big == nil {
		t.Fatalf("over-budget code: %v", err)
	}
	if len(gc.codes) != before {
		t.Fatal("a code larger than the budget was cached")
	}
}

// TestProgressSeesStagesAndFullProgress: a finished run's Progress reads
// StageDone with every evaluation unit counted, and the Report charged a
// wall to each of the three stages the run went through.
func TestProgressSeesStagesAndFullProgress(t *testing.T) {
	prog := new(Progress)
	p := testProblem()
	_, rep, err := Run(context.Background(), p, Options{Nodes: 2, FaultTolerance: 1, Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Snapshot()
	if want := rep.CodeLength * len(rep.Primes); st.PointsDone != want || st.PointsTotal != want {
		t.Fatalf("points %d/%d, want %d/%d", st.PointsDone, st.PointsTotal, want, want)
	}
	if st.Stage != StageDone {
		t.Fatalf("stage %v after the run, want done", st.Stage)
	}
	if rep.ComputeWall <= 0 || rep.DecodeWall <= 0 || rep.VerifyPerTrial <= 0 {
		t.Fatalf("stage walls prepare %v, decode %v, verify %v per trial: want all three charged",
			rep.ComputeWall, rep.DecodeWall, rep.VerifyPerTrial)
	}
}

func TestProgressSeesSuspects(t *testing.T) {
	prog := new(Progress)
	p := testProblem()
	// Plenty of fault tolerance so one lying node is corrected.
	_, rep, err := Run(context.Background(), p, Options{
		Nodes: 4, FaultTolerance: 4, Adversary: Adversary{Seed: 3, Liars: []int{1}}, Progress: prog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SuspectNodes) == 0 {
		t.Fatal("test needs a run that identifies suspects")
	}
	if got := prog.Snapshot().Suspects; got != len(rep.SuspectNodes) {
		t.Fatalf("progress saw %d suspects, report has %d", got, len(rep.SuspectNodes))
	}
}

func TestSingleNodeRunUsesSubChunks(t *testing.T) {
	// Satellite: with K=1 and a wide pool, the owned range must be split
	// into sub-chunks (so idle workers can help) with bit-identical
	// results.
	p := testProblem()
	serial, _, err := Run(context.Background(), p, Options{Nodes: 1, FaultTolerance: 3, MaxParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrency proof: wrap the problem to track concurrent Evaluate
	// calls while a wide pool splits the single node's range.
	var cur, peak atomic.Int64
	tracked := &concurrencyTrackedProblem{Problem: p, cur: &cur, peak: &peak}
	wide, _, err := Run(context.Background(), tracked, Options{Nodes: 1, FaultTolerance: 3, MaxParallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := serial.Primes[0]
	for w := range serial.Coeffs[q] {
		for j := range serial.Coeffs[q][w] {
			if serial.Coeffs[q][w][j] != wide.Coeffs[q][w][j] {
				t.Fatal("sub-chunked single-node run changed the proof")
			}
		}
	}
	if peak.Load() < 2 {
		t.Fatalf("single-node run never evaluated concurrently (peak %d) despite pool width 8", peak.Load())
	}
}

// concurrencyTrackedProblem counts concurrent Evaluate calls.
type concurrencyTrackedProblem struct {
	Problem
	cur, peak *atomic.Int64
}

func (p *concurrencyTrackedProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	c := p.cur.Add(1)
	for {
		pk := p.peak.Load()
		if c <= pk || p.peak.CompareAndSwap(pk, c) {
			break
		}
	}
	time.Sleep(50 * time.Microsecond)
	defer p.cur.Add(-1)
	return p.Problem.Evaluate(q, x0)
}

// TestPoolRunCompletedSurvivesLateCancel pins Pool.Run's verdict when
// the context is cancelled after every task has been claimed and all
// of them complete successfully: the task set completed, so the caller
// must see success, not the unrelated cancellation. Pre-fix, Run fell
// through to ctx.Err() (and its cancel branch poisoned even a finished
// run's error), turning a fully completed run into a spurious failure.
func TestPoolRunCompletedSurvivesLateCancel(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()

	// Deterministic interleaving: both tasks are claimed and report in,
	// then the context is cancelled while they are still in flight, then
	// they return nil. Run must wait them out and report success.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var entered atomic.Int64
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- pool.Run(ctx, 2, func(id int) error {
			entered.Add(1)
			<-release
			return nil
		})
	}()
	for entered.Load() < 2 {
		runtime.Gosched()
	}
	cancel()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("completed run reported %v, want nil", err)
	}

	// And the pure timing race, many times: cancellation arriving at
	// (or just after) the moment the last task finishes must never
	// fabricate a failure.
	for i := 0; i < 200; i++ {
		raceCtx, raceCancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		raceDone := make(chan error, 1)
		go func() {
			raceDone <- pool.Run(raceCtx, 4, func(id int) error {
				ran.Add(1)
				return nil
			})
		}()
		for ran.Load() < 4 {
			runtime.Gosched()
		}
		raceCancel()
		if err := <-raceDone; err != nil {
			t.Fatalf("iteration %d: completed run reported %v (ran %d/4 tasks)", i, err, ran.Load())
		}
	}
}

// TestPoolWeightedRunGetsLargerShare pins the weight-aware round-robin:
// with every worker claim serialized through a width-1 pool, a weight-3
// run's tasks must interleave ~3x as densely as a concurrent weight-1
// run's, and the weight-1 run must still finish (no starvation).
func TestPoolWeightedRunGetsLargerShare(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()

	// Seed both runs before the single worker starts claiming: a gate
	// task submitted first holds the worker until both task sets are
	// queued, so the claim order afterwards is purely the scheduler's.
	gate := make(chan struct{})
	gateEntered := make(chan struct{})
	gateDone := make(chan error, 1)
	go func() {
		gateDone <- pool.Run(context.Background(), 1, func(int) error {
			close(gateEntered)
			<-gate
			return nil
		})
	}()
	// The worker must be inside the gate task before the contenders are
	// submitted, or it could drain one of them while the other queues.
	<-gateEntered

	const n = 12
	var mu sync.Mutex
	var order []string
	record := func(tag string) func(int) error {
		return func(int) error {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
			return nil
		}
	}
	heavyDone := make(chan error, 1)
	lightDone := make(chan error, 1)
	go func() { heavyDone <- pool.RunWeighted(context.Background(), n, 3, record("heavy")) }()
	go func() { lightDone <- pool.Run(context.Background(), n, record("light")) }()

	// Wait until both runs are queued behind the gate, then open it.
	for {
		pool.mu.Lock()
		queued := len(pool.runs)
		pool.mu.Unlock()
		if queued == 3 {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	if err := <-gateDone; err != nil {
		t.Fatal(err)
	}
	if err := <-heavyDone; err != nil {
		t.Fatal(err)
	}
	if err := <-lightDone; err != nil {
		t.Fatal(err)
	}

	// In the window before either run drains, heavy should have claimed
	// ~3 tasks per light task. Look at the prefix where both runs still
	// had work: the first 12 claims hold 3:1 cycles (3 heavy + 1 light).
	heavyFirst8 := 0
	for _, tag := range order[:8] {
		if tag == "heavy" {
			heavyFirst8++
		}
	}
	if heavyFirst8 < 5 {
		t.Fatalf("weight-3 run claimed %d of the first 8 serialized slots, want >= 5 (order %v)", heavyFirst8, order)
	}
	if len(order) != 2*n {
		t.Fatalf("ran %d tasks, want %d", len(order), 2*n)
	}
}
