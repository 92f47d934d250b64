package core

// Tests for the self-healing gather: bounded repair rounds that turn a
// beyond-budget decode failure into latency. The scenarios here pin the
// mechanics the chaos harness exercises end to end — sponsor rotation
// across rounds, the typed refusal when rounds run out, the round
// filter against stale and replayed frames, and the boundary behavior
// of the helpers that cut missing ranges into repair work.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camelot/internal/rs"
)

// filterTransport drops messages matching a predicate on their way to
// the underlying bus — deterministic per-frame loss for exercising
// specific rounds.
type filterTransport struct {
	*BroadcastBus
	dropFn func(NodeShares) bool
}

func (t *filterTransport) Send(ctx context.Context, m NodeShares) error {
	if t.dropFn(m) {
		return nil
	}
	return t.BroadcastBus.Send(ctx, m)
}

// TestRepairSecondRound loses nodes 1 and 3 in round 0 (4 erasures vs
// budget 2) and then eats the entire first repair round too: the second
// round, with sponsors rotated to different survivors, must recover and
// the proof must be bit-identical to the fault-free run.
func TestRepairSecondRound(t *testing.T) {
	ctx := context.Background()
	p := testProblem()
	baseline, _, err := Run(ctx, p, Options{Nodes: 5, FaultTolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	proof, rep, err := Run(ctx, p, Options{
		Nodes: 5, FaultTolerance: 1,
		MaxErasures: 2, MaxRepairRounds: 2, GatherGrace: 100 * time.Millisecond,
		NewTransport: func(k int) (Transport, error) {
			return &filterTransport{
				BroadcastBus: NewBroadcastBus(k),
				dropFn: func(m NodeShares) bool {
					if m.Round == 0 {
						return m.ID == 1 || m.ID == 3
					}
					return m.Round == 1 // first repair round lost wholesale
				},
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairRounds != 2 {
		t.Fatalf("RepairRounds = %d, want 2", rep.RepairRounds)
	}
	if !sameInts(rep.RepairedNodes, []int{1, 3}) {
		t.Fatalf("RepairedNodes = %v, want [1 3]", rep.RepairedNodes)
	}
	if !sameInts(rep.MissingNodes, []int{}) {
		t.Fatalf("MissingNodes = %v, want none", rep.MissingNodes)
	}
	if err := proofsEqual(baseline, proof); err != nil {
		t.Fatalf("repaired proof differs from fault-free run: %v", err)
	}
}

// TestRepairExhaustedStaysTyped keeps eating every repair round: once
// MaxRepairRounds is spent the run must end in the same typed
// beyond-budget refusal a repair-disabled run produces — never a hang,
// never an untyped error.
func TestRepairExhaustedStaysTyped(t *testing.T) {
	p := testProblem()
	_, _, err := Run(context.Background(), p, Options{
		Nodes: 5, FaultTolerance: 1,
		MaxErasures: 2, MaxRepairRounds: 1, GatherGrace: 100 * time.Millisecond,
		NewTransport: func(k int) (Transport, error) {
			return &filterTransport{
				BroadcastBus: NewBroadcastBus(k),
				dropFn: func(m NodeShares) bool {
					return m.Round > 0 || m.ID == 1 || m.ID == 3
				},
			}, nil
		},
	})
	if !errors.Is(err, rs.ErrDecodeFailure) {
		t.Fatalf("err = %v, want rs.ErrDecodeFailure", err)
	}
}

// timedVerifyProblem is a compiled test problem whose per-point Evaluate
// sleeps and adds up its calls and the time spent inside it. The prepare
// stage runs the compiled plan, so only verification calls Evaluate.
type timedVerifyProblem struct {
	*batchPolyProblem
	inside, calls atomic.Int64
}

func (p *timedVerifyProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	p.calls.Add(1)
	defer func(start time.Time) { p.inside.Add(int64(time.Since(start))) }(time.Now())
	time.Sleep(time.Millisecond)
	return p.batchPolyProblem.Evaluate(q, x0)
}

// TestRepairAfterMiscorrection pins chaos seed 7's case (mixed seed
// 17000058): nodes 1, 5 and 6 are lost (6 erasures) while node 3 lies
// (2 errors), beyond the budget of 8 over GF(97), and for this liar Gao
// lands on a neighbouring codeword that only verification rejects.
// Without repair the run fails ErrVerificationFailed; with one round it
// heals bit-identically. Both verification passes check against one set
// of evaluations, VerifyTrials per prime, and VerifyTrials ×
// VerifyPerTrial covers the time they took.
func TestRepairAfterMiscorrection(t *testing.T) {
	ctx := context.Background()
	const seed = 17000058
	baseline, _, err := Run(ctx, testProblem(), Options{Nodes: 8, FaultTolerance: 4})
	if err != nil {
		t.Fatal(err)
	}
	run := func(repair int) (*timedVerifyProblem, *Proof, *Report, error) {
		p := &timedVerifyProblem{batchPolyProblem: &batchPolyProblem{polyProblem: testProblem()}}
		proof, rep, err := Run(ctx, p, Options{
			Nodes: 8, FaultTolerance: 4, VerifyTrials: 3, Seed: seed,
			MaxErasures: 3, MaxRepairRounds: repair, GatherGrace: 2 * time.Second,
			Adversary: Adversary{Seed: seed, Liars: []int{3}},
			NewTransport: func(k int) (Transport, error) {
				return &filterTransport{
					BroadcastBus: NewBroadcastBus(k),
					dropFn: func(m NodeShares) bool {
						return m.Round == 0 && (m.ID == 1 || m.ID == 5 || m.ID == 6)
					},
				}, nil
			},
		})
		return p, proof, rep, err
	}
	if _, _, _, err := run(0); !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("repair off: err = %v, want ErrVerificationFailed (the miscorrection)", err)
	}
	p, proof, rep, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairRounds != 1 || !sameInts(rep.RepairedNodes, []int{1, 5, 6}) || !sameInts(rep.SuspectNodes, []int{3, 6}) {
		t.Fatalf("repair rounds %d, repaired %v, suspects %v; want 1, [1 5 6], [3 6]",
			rep.RepairRounds, rep.RepairedNodes, rep.SuspectNodes)
	}
	if err := proofsEqual(baseline, proof); err != nil {
		t.Fatalf("repaired proof differs from the fault-free run: %v", err)
	}
	// Rounding down VerifyPerTrial loses under a nanosecond per trial.
	verify, inside := time.Duration(rep.VerifyTrials)*rep.VerifyPerTrial, time.Duration(p.inside.Load())
	if verify < inside-time.Duration(rep.VerifyTrials) {
		t.Fatalf("VerifyTrials × VerifyPerTrial = %v, but verification spent %v inside Evaluate over both passes", verify, inside)
	}
	if n, want := p.calls.Load(), int64(rep.VerifyTrials*len(proof.Primes)); n != want {
		t.Fatalf("two verification passes made %d Evaluate calls, want %d: one per trial and prime", n, want)
	}
}

// replayTransport captures a frame the network "lost" in round 0 and
// replays it — values mutated — into the repair round's gather, still
// tagged Round 0. The round filter must treat it as noise.
type replayTransport struct {
	*BroadcastBus
	mu       sync.Mutex
	captured *NodeShares
}

func (t *replayTransport) Send(ctx context.Context, m NodeShares) error {
	if m.Round == 0 {
		if m.ID == 1 || m.ID == 3 {
			t.mu.Lock()
			if t.captured == nil {
				c := m
				t.captured = &c
			}
			t.mu.Unlock()
			return nil
		}
		return t.BroadcastBus.Send(ctx, m)
	}
	t.mu.Lock()
	c := t.captured
	t.captured = nil
	t.mu.Unlock()
	if c != nil {
		stale := *c
		stale.Vals[0][0][0] ^= 1 // corrupt: accepting it would poison the word
		if err := t.BroadcastBus.Send(ctx, stale); err != nil {
			return err
		}
	}
	return t.BroadcastBus.Send(ctx, m)
}

// TestRepairDropsMutatedStaleReplay replays a mutated round-0 frame
// into the repair round: the gather's round filter must drop it (it is
// node 1's delivery fault in round 0, not an arrival in round 1), the
// repair must still recover, and the proof must stay bit-identical.
func TestRepairDropsMutatedStaleReplay(t *testing.T) {
	ctx := context.Background()
	p := testProblem()
	baseline, _, err := Run(ctx, p, Options{Nodes: 5, FaultTolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	proof, rep, err := Run(ctx, p, Options{
		Nodes: 5, FaultTolerance: 1,
		MaxErasures: 2, MaxRepairRounds: 1, GatherGrace: 2 * time.Second,
		NewTransport: func(k int) (Transport, error) {
			return &replayTransport{BroadcastBus: NewBroadcastBus(k)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(rep.RepairedNodes, []int{1, 3}) {
		t.Fatalf("RepairedNodes = %v, want [1 3]", rep.RepairedNodes)
	}
	if err := proofsEqual(baseline, proof); err != nil {
		t.Fatalf("stale replay leaked into the repaired proof: %v", err)
	}
}

// TestGatherQuorumDropsStaleRoundFrames drives the quorum loop directly
// with a mix of rounds: frames from any round but the requested one
// must not count toward the quorum, must not appear in the output, and
// must not satisfy the post-quorum drain.
func TestGatherQuorumDropsStaleRoundFrames(t *testing.T) {
	ch := make(chan NodeShares, 8)
	stale := NodeShares{ID: 1, Round: 0, Lo: 7} // a round-0 straggler
	ch <- stale
	ch <- NodeShares{ID: 0, Round: 1}
	ch <- NodeShares{ID: 1, Round: 1}
	ch <- NodeShares{ID: 0, Round: 2} // from a round that does not exist yet
	out, err := GatherShares(context.Background(), ch, GatherSpec{K: 2, Quorum: 2, Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("gather returned %d frames, want the 2 round-1 frames: %+v", len(out), out)
	}
	for _, m := range out {
		if m.Round != 1 {
			t.Fatalf("stale frame leaked through the round filter: %+v", m)
		}
	}

	// Stale frames alone must not arm the quorum: with sends concluded
	// the gather settles empty instead of counting them.
	ch2 := make(chan NodeShares, 4)
	ch2 <- stale
	ch2 <- NodeShares{ID: 0, Round: 0}
	done := make(chan struct{})
	close(done)
	out, err = GatherShares(context.Background(), ch2, GatherSpec{K: 2, Quorum: 2, Round: 1, SendsDone: done})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("round-0 frames counted into a round-1 gather: %+v", out)
	}
}

// TestCollectSharesDedupByNodeAndRound pins the collector's dedup key:
// the first copy of a (node, round) pair wins, later copies and other
// rounds' frames are skipped as if never delivered.
func TestCollectSharesDedupByNodeAndRound(t *testing.T) {
	msgs := []NodeShares{
		{ID: 0, Round: 1, Lo: 5},
		{ID: 0, Round: 1, Lo: 9}, // duplicate delivery: first copy wins
		{ID: 1, Round: 0, Lo: 2}, // stale round: not a delivery at all
		{ID: 1, Round: 1, Lo: 4},
	}
	delivered, missing, err := collectShares(msgs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 2 || delivered[0].Lo != 5 || delivered[1].Lo != 4 {
		t.Fatalf("delivered = %+v, want first copies of nodes 0 and 1", delivered)
	}
	if len(missing) != 0 {
		t.Fatalf("missing = %v, want none", missing)
	}
	// Without the round-1 frame, node 1's stale round-0 copy must not
	// mask the loss.
	_, missing, err = collectShares(msgs[:3], 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(missing, []int{1}) {
		t.Fatalf("missing = %v, want [1]", missing)
	}
}

// TestErasedPointsBoundaries pins the missing-node → erased-point
// expansion on an uneven assignment (10 points over 4 nodes: ranges
// [0,3) [3,6) [6,8) [8,10)).
func TestErasedPointsBoundaries(t *testing.T) {
	en := &engine{assign: NewPointAssignment(10, 4)}
	if got := en.erasedPoints(nil); got != nil {
		t.Fatalf("erasedPoints(nil) = %v, want nil", got)
	}
	if got, want := en.erasedPoints([]int{1, 3}), []int{3, 4, 5, 8, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("erasedPoints([1 3]) = %v, want %v", got, want)
	}
	if got, want := en.erasedPoints([]int{2}), []int{6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("erasedPoints([2]) = %v, want %v", got, want)
	}
}

// TestCutRangeBoundaries pins the sub-chunk cutter on its edges: empty
// and inverted ranges, more parts than points, single points, and the
// no-split cases — plus the tiling invariant every cut must satisfy.
func TestCutRangeBoundaries(t *testing.T) {
	cases := []struct {
		lo, hi, parts int
		want          [][2]int
	}{
		{0, 10, 3, [][2]int{{0, 3}, {3, 6}, {6, 10}}},
		{0, 3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // parts clamp to width
		{5, 6, 4, [][2]int{{5, 6}}},                 // single point
		{4, 4, 2, nil},                              // empty range
		{7, 3, 2, nil},                              // inverted range
		{0, 10, 0, [][2]int{{0, 10}}},               // no split requested
		{0, 10, 1, [][2]int{{0, 10}}},
	}
	for _, tc := range cases {
		got := cutRange(tc.lo, tc.hi, tc.parts)
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("cutRange(%d, %d, %d) = %v, want %v", tc.lo, tc.hi, tc.parts, got, tc.want)
		}
		// Tiling: the pieces must cover [lo, hi) contiguously in order.
		at := tc.lo
		for _, c := range got {
			if c[0] != at || c[1] <= c[0] {
				t.Fatalf("cutRange(%d, %d, %d) does not tile: %v", tc.lo, tc.hi, tc.parts, got)
			}
			at = c[1]
		}
		if len(got) > 0 && at != tc.hi {
			t.Fatalf("cutRange(%d, %d, %d) stops at %d: %v", tc.lo, tc.hi, tc.parts, at, got)
		}
	}
}

// TestLossyDelayedCopyCannotStraddleRounds is the regression for the
// round-isolation contract: a delivery delayed in round N whose send
// context is cancelled when the round ends must be abandoned at once —
// it must not hold the round, nor land on the bus where round N+1's
// gather would have to filter it.
func TestLossyDelayedCopyCannotStraddleRounds(t *testing.T) {
	bus := NewBroadcastBus(4)
	var held heldSends
	roundCtx, cancelRound := context.WithCancel(context.Background())
	deliver(roundCtx, bus.Send, NodeShares{ID: 0, Round: 0}, 1, time.Hour, &held) // held: returns nil
	cancelRound()                                                                 // round 0's gather returned; the engine cancels its senders
	waited := make(chan error)
	go func() { waited <- held.wait() }()
	select {
	case err := <-waited:
		if err != nil || len(bus.ch) != 0 {
			t.Fatalf("abandoned round-0 delivery: err %v, %d message(s) on the bus", err, len(bus.ch))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a delayed delivery outlived its round's cancellation")
	}
}

// TestRepairProgressNeverOverCredits pins the progress-accounting
// invariant PointsDone <= PointsTotal across a healed run. Round 0
// evaluates (and counts) every node's range but loses two broadcasts
// in transit; the repair round recomputes those ranges on sponsoring
// survivors — a second evaluation of already-counted points that must
// not push PointsDone past PointsTotal.
func TestRepairProgressNeverOverCredits(t *testing.T) {
	ctx := context.Background()
	p := testProblem()
	prog := new(Progress)
	_, rep, err := Run(ctx, p, Options{
		Nodes: 5, FaultTolerance: 1,
		MaxErasures: 2, MaxRepairRounds: 1, GatherGrace: 100 * time.Millisecond,
		Progress: prog,
		NewTransport: func(k int) (Transport, error) {
			return &filterTransport{
				BroadcastBus: NewBroadcastBus(k),
				dropFn: func(m NodeShares) bool {
					return m.Round == 0 && (m.ID == 1 || m.ID == 3)
				},
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairRounds != 1 {
		t.Fatalf("RepairRounds = %d, want 1 (fixture must force a repair)", rep.RepairRounds)
	}
	st := prog.Snapshot()
	if st.PointsTotal != rep.CodeLength*len(rep.Primes) {
		t.Fatalf("PointsTotal = %d, want %d", st.PointsTotal, rep.CodeLength*len(rep.Primes))
	}
	if st.PointsDone > st.PointsTotal {
		t.Fatalf("PointsDone = %d exceeds PointsTotal = %d after repair: repair rounds double-credit progress", st.PointsDone, st.PointsTotal)
	}
	if st.PointsDone < st.PointsTotal {
		// Every range was eventually delivered (round 0 survivors plus
		// repaired ranges), so a healed run's progress should also be
		// complete — the clamp must not under-credit a full recovery.
		t.Fatalf("PointsDone = %d < PointsTotal = %d after full heal", st.PointsDone, st.PointsTotal)
	}
}
