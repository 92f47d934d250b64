package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camelot/internal/ff"
	"camelot/internal/plan"
)

// slowProblem sleeps per evaluation, for cancellation-promptness tests.
type slowProblem struct {
	degree int
	delay  time.Duration
}

var _ Problem = (*slowProblem)(nil)

func (p *slowProblem) Name() string       { return "slow" }
func (p *slowProblem) Width() int         { return 1 }
func (p *slowProblem) Degree() int        { return p.degree }
func (p *slowProblem) MinModulus() uint64 { return 257 }
func (p *slowProblem) NumPrimes() int     { return 1 }
func (p *slowProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	time.Sleep(p.delay)
	return []uint64{x0 % q}, nil
}

// batchPolyProblem wraps polyProblem with a compiled block path,
// optionally sabotaged to return malformed blocks.
type batchPolyProblem struct {
	*polyProblem
	compiles   atomic.Int64
	blockCalls atomic.Int64
	badRows    bool
	badWidth   bool
}

var _ CompiledProblem = (*batchPolyProblem)(nil)

func (p *batchPolyProblem) Compile(f ff.Field) (plan.Plan, error) {
	p.compiles.Add(1)
	return batchPolyPlan{p: p, q: f.Q}, nil
}

type batchPolyPlan struct {
	p *batchPolyProblem
	q uint64
}

func (c batchPolyPlan) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	p, q := c.p, c.q
	p.blockCalls.Add(1)
	if p.badRows {
		return make([][]uint64, len(xs)+1), nil
	}
	out := make([][]uint64, len(xs))
	for i, x := range xs {
		vec, err := p.polyProblem.Evaluate(q, x)
		if err != nil {
			return nil, err
		}
		if p.badWidth {
			vec = vec[:1]
		}
		out[i] = vec
	}
	return out, nil
}

func TestRunUsesBatchPath(t *testing.T) {
	bp := &batchPolyProblem{polyProblem: testProblem()}
	pointProof, _, err := Run(context.Background(), bp.polyProblem, Options{Nodes: 3, FaultTolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	batchProof, rep, err := Run(context.Background(), bp, Options{Nodes: 3, FaultTolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bp.blockCalls.Load() == 0 {
		t.Fatal("EvaluateBlock was never called")
	}
	if got, want := bp.compiles.Load(), int64(len(batchProof.Primes)); got != want {
		t.Fatalf("run compiled %d times, want once per prime (%d)", got, want)
	}
	if !rep.Verified {
		t.Fatal("batch run not verified")
	}
	q := pointProof.Primes[0]
	for w := range pointProof.Coeffs[q] {
		for j := range pointProof.Coeffs[q][w] {
			if pointProof.Coeffs[q][w][j] != batchProof.Coeffs[q][w][j] {
				t.Fatal("batch and per-point proofs differ")
			}
		}
	}
}

func TestRunRejectsMalformedBlocks(t *testing.T) {
	for name, bp := range map[string]*batchPolyProblem{
		"wrong-rows":  {polyProblem: testProblem(), badRows: true},
		"wrong-width": {polyProblem: testProblem(), badWidth: true},
	} {
		if _, _, err := Run(context.Background(), bp, Options{Nodes: 2}); err == nil {
			t.Fatalf("%s: malformed EvaluateBlock output accepted", name)
		}
	}
}

func TestBroadcastBusRoundTrip(t *testing.T) {
	bus := NewBroadcastBus(3)
	ctx := context.Background()
	var wg sync.WaitGroup
	for id := 0; id < 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := bus.Send(ctx, NodeShares{ID: id, Lo: id, Hi: id + 1}); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	msgs, err := bus.Gather(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	all, missing, err := collectShares(msgs, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("missing = %v on a complete gather", missing)
	}
	for id, m := range all {
		if m.ID != id || m.Lo != id {
			t.Fatalf("message %d misfiled: %+v", id, m)
		}
	}
}

func TestCollectSharesDetectsProtocolViolations(t *testing.T) {
	// Duplicated delivery is a transport fault, not a protocol
	// violation: the first copy wins and nothing is reported missing.
	all, missing, err := collectShares([]NodeShares{{ID: 0, Lo: 1}, {ID: 0, Lo: 9}, {ID: 1}}, 2, 0)
	if err != nil || len(missing) != 0 {
		t.Fatalf("duplicate delivery: all=%v missing=%v err=%v", all, missing, err)
	}
	if len(all) != 2 || all[0].Lo != 1 {
		t.Fatalf("dedup did not keep the first copy: %+v", all)
	}
	// A sender outside [0, k) is a protocol violation.
	if _, _, err := collectShares([]NodeShares{{ID: 5}}, 2, 0); err == nil {
		t.Fatal("out-of-range sender accepted")
	}
	// Missing senders are reported, not errored — the engine decides
	// whether the run is strict (fail) or erasure-tolerant (decode).
	all, missing, err = collectShares([]NodeShares{{ID: 1}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || len(missing) != 2 || missing[0] != 0 || missing[1] != 2 {
		t.Fatalf("all=%v missing=%v, want one delivered and missing [0 2]", all, missing)
	}
	boom := errors.New("node exploded")
	if _, _, err := collectShares([]NodeShares{{ID: 0}, {ID: 1, Err: boom}}, 2, 0); !errors.Is(err, boom) {
		t.Fatalf("in-band node error not surfaced: %v", err)
	}
}

// countingTransport wraps the bus to prove custom transports plug in.
type countingTransport struct {
	*BroadcastBus
	sends atomic.Int64
}

func (c *countingTransport) Send(ctx context.Context, m NodeShares) error {
	c.sends.Add(1)
	return c.BroadcastBus.Send(ctx, m)
}

func TestRunWithCustomTransport(t *testing.T) {
	ct := &countingTransport{}
	opts := Options{
		Nodes: 4,
		NewTransport: func(k int) (Transport, error) {
			ct.BroadcastBus = NewBroadcastBus(k)
			return ct, nil
		},
	}
	_, rep, err := Run(context.Background(), testProblem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("not verified over custom transport")
	}
	if got := ct.sends.Load(); got != int64(rep.Nodes) {
		t.Fatalf("transport saw %d sends, want %d", got, rep.Nodes)
	}
}

// blockingSendTransport models a bounded transport with a dead
// collector: Send blocks until cancelled, every gather fails immediately.
type blockingSendTransport struct {
	gatherErr error
}

func (tr *blockingSendTransport) Send(ctx context.Context, m NodeShares) error {
	<-ctx.Done()
	return ctx.Err()
}

func (tr *blockingSendTransport) Gather(ctx context.Context, k int) ([]NodeShares, error) {
	return nil, tr.gatherErr
}

func (tr *blockingSendTransport) GatherQuorum(ctx context.Context, spec GatherSpec) ([]NodeShares, error) {
	return nil, tr.gatherErr
}

func (tr *blockingSendTransport) Close() {}

func TestRunFailingGatherDoesNotDeadlock(t *testing.T) {
	boom := errors.New("collector died")
	opts := Options{
		Nodes:        4,
		NewTransport: func(k int) (Transport, error) { return &blockingSendTransport{gatherErr: boom}, nil },
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(context.Background(), testProblem(), opts)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the gather failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked: gather failure did not cancel blocked senders")
	}
}

func TestEvaluateRangeAutotunesBlockSize(t *testing.T) {
	bp := &batchPolyProblem{polyProblem: testProblem()}
	ctx := context.Background()
	const q, lo, hi = 257, 0, 20000
	// The first call is a probeChunk-sized probe, and these near-free
	// evaluations push the steady-state size to the maxBatchChunk clamp,
	// so the whole range takes 1 + ceil((hi-probeChunk)/maxBatchChunk)
	// calls.
	batch, point := [][]uint64{make([]uint64, hi-lo), make([]uint64, hi-lo)}, [][]uint64{make([]uint64, hi-lo), make([]uint64, hi-lo)}
	if err := evaluateRangeInto(ctx, NewPlanner(bp), q, lo, hi, bp.Width(), batch, lo); err != nil {
		t.Fatal(err)
	}
	wantCalls := int64(1 + (hi-lo-probeChunk+maxBatchChunk-1)/maxBatchChunk)
	if calls := bp.blockCalls.Load(); calls != wantCalls {
		t.Fatalf("autotuned range of %d points used %d blocks, want %d (probe %d + clamp %d)",
			hi-lo, calls, wantCalls, probeChunk, maxBatchChunk)
	}
	if err := evaluateRangeInto(ctx, NewPlanner(bp.polyProblem), q, lo, hi, bp.Width(), point, lo); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(batch) != fmt.Sprint(point) {
		t.Fatal("autotuned batch evaluation disagrees with the pointwise plan")
	}
	// A block is the cancellation quantum: a cancelled context must be
	// noticed before any block runs.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	before := bp.blockCalls.Load()
	if err := evaluateRangeInto(cancelled, NewPlanner(bp), q, lo, hi, bp.Width(), batch, lo); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if bp.blockCalls.Load() != before {
		t.Fatal("EvaluateBlock ran despite cancelled context")
	}
}

// TestInvalidOptionsAreTyped pins the one options check: values outside
// their domain and erasure-mode knobs on a strict run (repair without
// erasure tolerance is a contradiction — a strict gather never produces
// a repairable missing set) are refused up front with ErrInvalidOptions
// instead of being clamped or surfacing from a layer below.
func TestInvalidOptionsAreTyped(t *testing.T) {
	for name, opts := range map[string]Options{
		"negative nodes":        {Nodes: -2},
		"negative faults":       {FaultTolerance: -3},
		"negative trials":       {VerifyTrials: -1},
		"negative erasures":     {MaxErasures: -4},
		"negative repair":       {MaxErasures: 1, MaxRepairRounds: -1},
		"negative grace":        {MaxErasures: 1, GatherGrace: -time.Second},
		"negative parallelism":  {MaxParallelism: -1},
		"repair sans erasures":  {Nodes: 3, MaxRepairRounds: 1},
		"grace sans erasures":   {Nodes: 3, GatherGrace: time.Second},
		"liar beyond clamped K": {Nodes: 64, Adversary: Adversary{Liars: []int{8}}}, // e = 8 points
		"node in two roles":     {Nodes: 4, Adversary: Adversary{Liars: []int{1}, DropNodes: []int{1}}},
		"rate above 1":          {Nodes: 4, Adversary: Adversary{DropRate: 2}},
		"rate NaN":              {Nodes: 4, Adversary: Adversary{DupRate: math.NaN()}},
		"negative delay":        {Nodes: 4, Adversary: Adversary{MaxDelay: -time.Second}},
	} {
		if _, _, err := Run(context.Background(), testProblem(), opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: err = %v, want ErrInvalidOptions", name, err)
		}
	}
}

func TestRunCancelledContextPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// 100ms per evaluation × 30 points: an un-cancelled run would take
	// seconds even fully parallel; a prompt abort takes microseconds.
	p := &slowProblem{degree: 29, delay: 100 * time.Millisecond}
	start := time.Now()
	_, _, err := Run(ctx, p, Options{Nodes: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
}

func TestRunCancelMidEvaluation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &slowProblem{degree: 39, delay: 10 * time.Millisecond}
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// Serial execution would need 40 × 10ms = 400ms of evaluation.
	_, _, err := Run(ctx, p, Options{Nodes: 4, MaxParallelism: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("mid-run cancellation took %v", elapsed)
	}
}

func TestEveryStageReturnsCtxErr(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()
	p := testProblem()

	en, err := newEngine(p, Options{Nodes: 3, FaultTolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer en.close()
	if err := en.round(cancelled, 0, en.ownRanges()); !errors.Is(err, context.Canceled) {
		t.Fatalf("prepare: err = %v, want context.Canceled", err)
	}
	if err := en.round(bg, 0, en.ownRanges()); err != nil {
		t.Fatal(err)
	}
	if _, err := en.stageDecode(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("decode: err = %v, want context.Canceled", err)
	}
	proof, err := en.stageDecode(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := en.stageVerify(cancelled, proof); !errors.Is(err, context.Canceled) {
		t.Fatalf("verify: err = %v, want context.Canceled", err)
	}
	if err := en.stageVerify(bg, proof); err != nil {
		t.Fatal(err)
	}
}

// TestRunCancelledOrRefusedLeavesNoGoroutine: the verifier's
// evaluations run on the pool beside round 0 and end with the run,
// however it ends — cancelled while round 0 sends, or failed in round 0
// (both abandon the evaluations after at most one more point), or a
// strict refusal of a lost node.
func TestRunCancelledOrRefusedLeavesNoGoroutine(t *testing.T) {
	const trials = 50 // 1 ms each: far longer than round 0
	for name, opts := range map[string]func(cancel func()) Options{
		"cancelled in round 0": func(cancel func()) Options {
			return Options{Nodes: 4, MaxParallelism: 2, VerifyTrials: trials, NewTransport: func(k int) (Transport, error) {
				return &filterTransport{BroadcastBus: NewBroadcastBus(k), dropFn: func(NodeShares) bool { cancel(); return false }}, nil
			}}
		},
		"failed in round 0": func(func()) Options {
			return Options{Nodes: 4, MaxParallelism: 2, VerifyTrials: trials, NewTransport: func(int) (Transport, error) {
				return nil, errors.New("no transport")
			}}
		},
		"strict refusal": func(func()) Options {
			return Options{Nodes: 4, FaultTolerance: 4, Adversary: Adversary{DropNodes: []int{2}}}
		},
	} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		p := &timedVerifyProblem{batchPolyProblem: &batchPolyProblem{polyProblem: testProblem()}}
		_, _, err := Run(ctx, p, opts(cancel))
		cancel()
		cancelled := name == "cancelled in round 0"
		if err == nil || cancelled != errors.Is(err, context.Canceled) || name != "strict refusal" && p.calls.Load() >= trials {
			t.Fatalf("%s: err = %v after %d of %d evaluations", name, err, p.calls.Load(), trials)
		}
		noGoroutineLeft(t, before)
	}
}

// TestVerifierVerdictIsVerifyProofs: the engine evaluates its challenge
// points on the pool while the proof is prepared, from the same seed in
// the same order as VerifyProof, so its verdict on a proof is
// VerifyProof's — on the honest proof, which a width-1 pool's run
// verifies too, and on that proof with one coefficient flipped.
func TestVerifierVerdictIsVerifyProofs(t *testing.T) {
	bg, p := context.Background(), testProblem()
	opts := Options{Nodes: 3, MaxParallelism: 1, VerifyTrials: 2, Seed: 5}
	if _, rep, err := Run(bg, p, opts); err != nil || !rep.Verified {
		t.Fatalf("width-1 run: err = %v, verified %v", err, rep != nil && rep.Verified)
	}
	en, err := newEngine(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer en.close()
	en.startExpect(bg)
	if err := en.round(bg, 0, en.ownRanges()); err != nil {
		t.Fatal(err)
	}
	proof, err := en.stageDecode(bg)
	if err != nil {
		t.Fatal(err)
	}
	if exp, _ := expectProof(bg, p, proof.Primes, opts.VerifyTrials, opts.Seed); fmt.Sprint(*exp) != fmt.Sprint(*en.expect.exp) {
		t.Fatalf("engine's challenge points %v, VerifyProof's %v", *en.expect.exp, *exp)
	}
	for _, flip := range []bool{false, true} {
		if q := proof.Primes[0]; flip {
			proof.Coeffs[q][0][2] = (proof.Coeffs[q][0][2] + 1) % q
		}
		want, err := VerifyProof(p, proof, opts.VerifyTrials, opts.Seed)
		got := en.stageVerify(bg, proof)
		if err != nil || want == flip || (got == nil) != want || got != nil && !errors.Is(got, ErrVerificationFailed) {
			t.Fatalf("flipped %v: engine says %v, VerifyProof (%v, %v)", flip, got, want, err)
		}
	}
}

// TestDecodeWallCoversPlanConstruction: when nodes are missing, the
// per-prime erasure plans build a subproduct tree and interpolation
// weights over the surviving points before any word is decoded, and that
// is decode time — Report.DecodeWall must include it, or it would be
// charged to no stage. The part of stageDecode (and the move on to the
// next stage, which charges it) the report does not account for has to
// be far smaller than building the plans takes.
func TestDecodeWallCoversPlanConstruction(t *testing.T) {
	bg := context.Background()
	en, err := newEngine(testProblem(), Options{
		Nodes: 8, FaultTolerance: 2000, MaxErasures: 1, GatherGrace: 50 * time.Millisecond,
		Adversary: Adversary{Seed: 1, DropNodes: []int{3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer en.close()
	if err := en.round(bg, 0, en.ownRanges()); err != nil {
		t.Fatal(err)
	}
	if !sameInts(en.missing, []int{3}) {
		t.Fatalf("missing = %v, want [3]", en.missing)
	}
	erased := en.erasedPoints(en.missing)
	planWall := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ { // the fastest of three: a floor, not a noisy sample
		start := time.Now()
		for _, code := range en.codes {
			if _, err := code.ErasurePlan(erased); err != nil {
				t.Fatal(err)
			}
		}
		planWall = min(planWall, time.Since(start))
	}

	start := time.Now()
	if _, err := en.stageDecode(bg); err != nil {
		t.Fatal(err)
	}
	en.enter(StageDone)
	stageWall := time.Since(start)
	unaccounted := stageWall - en.report.DecodeWall
	t.Logf("e=%d, %d erased: plans %v, stage %v, DecodeWall %v", en.e, len(erased), planWall, stageWall, en.report.DecodeWall)
	if unaccounted > planWall/2 {
		t.Fatalf("stageDecode took %v but reports DecodeWall %v: %v is unaccounted for, and building the erasure plans takes %v",
			stageWall, en.report.DecodeWall, unaccounted, planWall)
	}
}

func TestPointAssignmentTilesExactly(t *testing.T) {
	// Property sweep: Range intervals must tile [0, e) in order with no
	// gaps or overlaps, and Owner must agree with Range — including the
	// per==0 branch (more nodes than points, only reachable through
	// direct PointAssignment construction since Run clamps k <= e).
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ e, k int }{
		{1, 1}, {1, 2}, {2, 5}, {3, 5}, {5, 5}, {7, 3}, {16, 8}, {100, 7}, {99, 100},
	}
	for trial := 0; trial < 200; trial++ {
		cases = append(cases, struct{ e, k int }{e: 1 + rng.Intn(200), k: 1 + rng.Intn(40)})
	}
	for _, tc := range cases {
		pa := NewPointAssignment(tc.e, tc.k)
		next := 0
		for id := 0; id < tc.k; id++ {
			lo, hi := pa.Range(id)
			if lo != next {
				t.Fatalf("e=%d k=%d: Range(%d) starts at %d, want %d (gap or overlap)", tc.e, tc.k, id, lo, next)
			}
			if hi < lo {
				t.Fatalf("e=%d k=%d: Range(%d) = [%d,%d) inverted", tc.e, tc.k, id, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if own := pa.Owner(i); own != id {
					t.Fatalf("e=%d k=%d: Owner(%d) = %d, want %d", tc.e, tc.k, i, own, id)
				}
			}
			next = hi
		}
		if next != tc.e {
			t.Fatalf("e=%d k=%d: ranges cover [0,%d), want [0,%d)", tc.e, tc.k, next, tc.e)
		}
	}
}

func TestVerifyProofDeterministicPerSeed(t *testing.T) {
	p := testProblem()
	proof, _, err := Run(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		a, err1 := VerifyProof(p, proof, 3, seed)
		b, err2 := VerifyProof(p, proof, 3, seed)
		if err1 != nil || err2 != nil || a != b || !a {
			t.Fatalf("seed %d: verification not deterministic or rejected a true proof (%v, %v)", seed, err1, err2)
		}
	}
}

func TestEvaluateRangeFallbackMatchesBatch(t *testing.T) {
	bp := &batchPolyProblem{polyProblem: testProblem()}
	ctx := context.Background()
	const q, lo, hi = 257, 2, 9
	batch, point := [][]uint64{make([]uint64, hi-lo), make([]uint64, hi-lo)}, [][]uint64{make([]uint64, hi-lo), make([]uint64, hi-lo)}
	if err := evaluateRangeInto(ctx, NewPlanner(bp), q, lo, hi, bp.Width(), batch, lo); err != nil {
		t.Fatal(err)
	}
	if err := evaluateRangeInto(ctx, NewPlanner(bp.polyProblem), q, lo, hi, bp.Width(), point, lo); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(batch) != fmt.Sprint(point) {
		t.Fatalf("batch %v != per-point %v", batch, point)
	}
}
