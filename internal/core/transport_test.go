package core

// Unit and property tests for the transport layer itself: the
// collector's tolerance of arbitrary message streams, the broadcast
// bus's cancellation behaviour, the quorum-gather contract, the
// four-method Transport contract over every implementation, and the
// network faults of the fault record as the engine applies them.
// End-to-end fault scenarios live in chaos_test.go.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCollectSharesPropertySweep: over randomly permuted, duplicated,
// and truncated message sets, collectShares never panics, never
// invents or loses a sender, and reports the exact missing-id set.
func TestCollectSharesPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(12)
		dropped := map[int]bool{}
		for id := 0; id < k; id++ {
			if rng.Float64() < 0.3 {
				dropped[id] = true
			}
		}
		var msgs []NodeShares
		for id := 0; id < k; id++ {
			if dropped[id] {
				continue
			}
			copies := 1 + rng.Intn(3) // duplicated delivery
			for c := 0; c < copies; c++ {
				msgs = append(msgs, NodeShares{ID: id, Lo: id, Hi: id + 1})
			}
		}
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })

		delivered, missing, err := collectShares(msgs, k, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(delivered)+len(missing) != k {
			t.Fatalf("trial %d: %d delivered + %d missing != k=%d", trial, len(delivered), len(missing), k)
		}
		seen := map[int]bool{}
		for i, m := range delivered {
			if dropped[m.ID] {
				t.Fatalf("trial %d: dropped node %d delivered", trial, m.ID)
			}
			if m.Lo != m.ID {
				t.Fatalf("trial %d: payload mangled for node %d", trial, m.ID)
			}
			if seen[m.ID] {
				t.Fatalf("trial %d: node %d delivered twice after dedup", trial, m.ID)
			}
			seen[m.ID] = true
			if i > 0 && delivered[i-1].ID >= m.ID {
				t.Fatalf("trial %d: delivered not ordered by id", trial)
			}
		}
		for i, id := range missing {
			if !dropped[id] {
				t.Fatalf("trial %d: node %d reported missing but was sent", trial, id)
			}
			if i > 0 && missing[i-1] >= id {
				t.Fatalf("trial %d: missing ids not ascending: %v", trial, missing)
			}
		}
		if len(missing) != len(dropped) {
			t.Fatalf("trial %d: missing = %v, dropped = %v", trial, missing, dropped)
		}
	}
}

func TestBroadcastBusPreCancelledContexts(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// Gather on an empty bus with a dead context must not block.
	bus := NewBroadcastBus(2)
	if _, err := bus.Gather(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("gather: err = %v, want context.Canceled", err)
	}
	if _, err := bus.GatherQuorum(cancelled, GatherSpec{K: 2, Quorum: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("quorum gather: err = %v, want context.Canceled", err)
	}
	// Send on a *full* bus with a dead context must not block either
	// (on a bus with free capacity a pre-cancelled Send may still
	// succeed — select picks among ready cases — which is fine; the
	// guarantee is no deadlock).
	full := NewBroadcastBus(1)
	if err := full.Send(context.Background(), NodeShares{ID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := full.Send(cancelled, NodeShares{ID: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("send on full bus: err = %v, want context.Canceled", err)
	}
}

func TestBroadcastBusMidGatherCancellation(t *testing.T) {
	for _, quorum := range []bool{false, true} {
		bus := NewBroadcastBus(3)
		ctx, cancel := context.WithCancel(context.Background())
		if err := bus.Send(ctx, NodeShares{ID: 0}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			var err error
			if quorum {
				// No grace timer: the gather may only end by quorum or ctx.
				_, err = bus.GatherQuorum(ctx, GatherSpec{K: 3, Quorum: 3})
			} else {
				_, err = bus.Gather(ctx, 3)
			}
			done <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the gather consume the lone message
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("quorum=%v: err = %v, want context.Canceled", quorum, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("quorum=%v: mid-gather cancellation did not unblock", quorum)
		}
	}
}

func TestGatherQuorumCountsDistinctSenders(t *testing.T) {
	bus := NewBroadcastBus(8)
	ctx := context.Background()
	// Three raw messages but only two distinct senders: a quorum of 3
	// must not be satisfied by the duplicate.
	for _, id := range []int{0, 0, 1} {
		if err := bus.Send(ctx, NodeShares{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	msgs, err := bus.GatherQuorum(ctx, GatherSpec{K: 4, Quorum: 3, Grace: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("gather returned in %v — duplicate satisfied the quorum", elapsed)
	}
	if len(msgs) != 3 {
		t.Fatalf("raw stream length %d, want 3 (duplicates preserved)", len(msgs))
	}
	_, missing, err := collectShares(msgs, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(missing, []int{2, 3}) {
		t.Fatalf("missing = %v, want [2 3]", missing)
	}
}

func TestGatherQuorumReturnsAtQuorum(t *testing.T) {
	bus := NewBroadcastBus(8)
	ctx := context.Background()
	for id := 0; id < 3; id++ {
		if err := bus.Send(ctx, NodeShares{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	// Quorum 3 with an hour of grace: must return immediately.
	start := time.Now()
	msgs, err := bus.GatherQuorum(ctx, GatherSpec{K: 8, Quorum: 3, Grace: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || time.Since(start) > 5*time.Second {
		t.Fatalf("quorum return: %d msgs after %v", len(msgs), time.Since(start))
	}
}

// transportImpls is the table of Transport implementations in this
// package (internal/ctrl runs the same checks on its Coordinator).
func transportImpls(t *testing.T) map[string]func(k int) Transport {
	return map[string]func(k int) Transport{
		"bus": func(k int) Transport { return NewBroadcastBus(k) },
		"tcp": func(k int) Transport { return tcpLoopback(t, k) },
	}
}

// TestTCPAndBusConformance holds every implementation to the Transport
// contract: Gather(ctx, k) is the strict GatherQuorum, gathers leave the
// instance open for the next round, and Close is idempotent, releases
// senders blocked on a full channel, turns later Sends into no-ops and
// leaves no goroutine behind.
func TestTCPAndBusConformance(t *testing.T) {
	const k = 4
	for name, build := range transportImpls(t) {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			tr := build(k)
			sendAll := func(round int) {
				t.Helper()
				for id := 0; id < k; id++ {
					m := NodeShares{ID: id, From: (id + 1) % k, Round: round, Lo: id, Hi: id + 1, Vals: [][][]uint64{{{uint64(id)}}}}
					if err := tr.Send(ctx, m); err != nil {
						t.Fatal(err)
					}
				}
			}
			heard := func(msgs []NodeShares, err error, round int) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				delivered, missing, err := collectShares(msgs, k, round)
				if err != nil || len(missing) != 0 || len(delivered) != k {
					t.Fatalf("round %d: %d delivered, missing %v, err %v", round, len(delivered), missing, err)
				}
				for id, m := range delivered {
					if m.ID != id || m.Lo != id || m.Vals[0][0][0] != uint64(id) {
						t.Fatalf("round %d: message %d misfiled: %+v", round, id, m)
					}
				}
			}
			// Three gathers over one instance: by count, by the strict spec
			// it stands for, and a later round's.
			sendAll(0)
			msgs, err := tr.Gather(ctx, k)
			heard(msgs, err, 0)
			sendAll(0)
			msgs, err = tr.GatherQuorum(ctx, GatherSpec{K: k, Quorum: k, Strict: true})
			heard(msgs, err, 0)
			sendAll(1)
			msgs, err = tr.GatherQuorum(ctx, GatherSpec{K: k, Quorum: k, Grace: time.Second, Round: 1})
			heard(msgs, err, 1)

			// Far more Sends than any buffer holds and nobody gathering:
			// Close must release whatever blocked, and the rest are no-ops.
			done := make(chan error, 1)
			go func() {
				var err error
				for i := 0; i < 10*k && err == nil; i++ {
					err = tr.Send(ctx, NodeShares{ID: i % k, Lo: 0, Hi: 0})
				}
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			tr.Close()
			tr.Close()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Send across Close: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Send still blocked after Close")
			}
			if err := tr.Send(ctx, NodeShares{ID: 0, Lo: 0, Hi: 0}); err != nil {
				t.Fatalf("Send after Close: %v", err)
			}
			noGoroutineLeft(t, before)
		})
	}
}

// noGoroutineLeft waits up to five seconds for the goroutine count to
// fall back to before, and fails the test if it does not.
func noGoroutineLeft(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after", before, n)
	}
}

// TestLossyTransportFateIsDeterministic: the network faults of a record
// are a pure function of (Seed, sender), and the seed moves them.
func TestLossyTransportFateIsDeterministic(t *testing.T) {
	a := Adversary{Seed: 5, DropRate: 0.4, DupRate: 0.5, DelayRate: 0.5, MaxDelay: time.Millisecond}
	b, other := a, a
	other.Seed = 6
	varied, same := false, true
	for id := 0; id < 64; id++ {
		c1, del1 := a.Fate(id)
		if c2, del2 := b.Fate(id); c1 != c2 || del1 != del2 {
			t.Fatalf("Fate(%d) differs across identically seeded records", id)
		}
		if c3, del3 := a.Fate(id); c1 != c3 || del1 != del3 {
			t.Fatalf("Fate(%d) differs across calls", id)
		}
		varied = varied || c1 != 1 || del1 > 0
		c4, _ := other.Fate(id)
		same = same && c1 == c4
	}
	if !varied || same {
		t.Fatalf("over 64 senders at 40-50%% rates: some fate met %v, seeds 5 and 6 alike %v", varied, same)
	}
}

// countingBus is a bus that counts the messages put on it.
type countingBus struct {
	*BroadcastBus
	sent atomic.Int32
}

func (b *countingBus) Send(ctx context.Context, m NodeShares) error {
	b.sent.Add(1)
	return b.BroadcastBus.Send(ctx, m)
}

// TestLossyTransportDropsAndDuplicates: a dropped node's broadcast never
// reaches the transport, every other one reaches it twice, and the run
// names the dropped node missing.
func TestLossyTransportDropsAndDuplicates(t *testing.T) {
	bus := &countingBus{BroadcastBus: NewBroadcastBus(4)}
	_, rep, err := Run(context.Background(), testProblem(), Options{
		Nodes: 4, FaultTolerance: 4, MaxErasures: 1, GatherGrace: time.Second,
		Adversary:    Adversary{DropNodes: []int{2}, DupRate: 1},
		NewTransport: func(int) (Transport, error) { return bus, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := bus.sent.Load(); got != 6 || !sameInts(rep.MissingNodes, []int{2}) {
		t.Fatalf("%d messages sent, missing %v; want 3 survivors × 2 copies and [2]", got, rep.MissingNodes)
	}
}

// TestRunStrictModeRefusesLossPromptly pins the end of a strict gather:
// once sending has concluded and one grace period brought nothing more,
// the unheard node is lost, and the run refuses by name instead of
// waiting out the caller's context (under a background context: forever).
func TestRunStrictModeRefusesLossPromptly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for name, inner := range map[string]func(k int) Transport{
		"bus": func(k int) Transport { return NewBroadcastBus(k) },
		"tcp": func(k int) Transport { return tcpLoopback(t, k) },
	} {
		_, _, err := Run(ctx, testProblem(), Options{
			Nodes: 4, FaultTolerance: 4, Adversary: Adversary{DropNodes: []int{2}},
			NewTransport: func(k int) (Transport, error) { return inner(k), nil },
		})
		if err == nil || !strings.Contains(err.Error(), "transport delivered no message from node 2") {
			t.Fatalf("%s: err = %v, want the strict refusal naming node 2", name, err)
		}
	}
	if ctx.Err() != nil {
		t.Fatal("strict refusals took the whole deadline")
	}
}

func TestRunQuorumModeMatchesStrictWhenNothingIsLost(t *testing.T) {
	p := testProblem()
	strict, _, err := Run(context.Background(), p, Options{Nodes: 6, FaultTolerance: 3})
	if err != nil {
		t.Fatal(err)
	}
	quorum, rep, err := Run(context.Background(), p, Options{
		Nodes: 6, FaultTolerance: 3, MaxErasures: 2, GatherGrace: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proofsEqual(strict, quorum); err != nil {
		t.Fatalf("quorum mode changed the proof on a perfect network: %v", err)
	}
	if len(rep.MissingNodes) > 2 {
		t.Fatalf("MissingNodes = %v beyond MaxErasures", rep.MissingNodes)
	}
}

// TestLossyTransportDelayDoesNotBlockSender: an injected latency holds
// the message, not the sending worker. Node 0's broadcast is held for
// over half an hour on a one-worker pool that evaluates it first; the
// other three must still be sent, the quorum gather must end the round,
// and the held copy must be abandoned with it — a delay that blocked
// the worker, or a copy that outlived its round, would hold the run.
func TestLossyTransportDelayDoesNotBlockSender(t *testing.T) {
	adv := Adversary{DelayRate: 0.3, MaxDelay: time.Hour}
	delay := func(id int) time.Duration { _, d := adv.Fate(id); return d }
	for delay(0) < 30*time.Minute || delay(1)+delay(2)+delay(3) > 0 {
		adv.Seed++
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, rep, err := Run(ctx, testProblem(), Options{
		Nodes: 4, FaultTolerance: 4, MaxErasures: 1, GatherGrace: time.Hour, MaxParallelism: 1, Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(rep.MissingNodes, []int{0}) {
		t.Fatalf("MissingNodes = %v, want the held node 0", rep.MissingNodes)
	}
}

// TestLossyTransportShortDelayStillDelivers: delayed deliveries still
// arrive, duplicate copies included, once their delay elapses — a
// strict run hears every node.
func TestLossyTransportShortDelayStillDelivers(t *testing.T) {
	bus := &countingBus{BroadcastBus: NewBroadcastBus(4)}
	_, rep, err := Run(context.Background(), testProblem(), Options{
		Nodes: 4, FaultTolerance: 4, Adversary: Adversary{DelayRate: 1, DupRate: 1, MaxDelay: 2 * time.Millisecond},
		NewTransport: func(int) (Transport, error) { return bus, nil },
	})
	if err != nil || !rep.Verified || bus.sent.Load() != 8 {
		t.Fatalf("err %v, verified %v, %d messages sent; want a verified proof from 4 nodes × 2 copies", err, rep != nil && rep.Verified, bus.sent.Load())
	}
}

// erroringTransport fails every Send; Gather behaves like a bus that
// never hears anyone.
type erroringTransport struct {
	*BroadcastBus
	err error
}

func (t *erroringTransport) Send(context.Context, NodeShares) error { return t.err }

// TestLossyDelayedSendErrorFailsTheRun pins the error propagation of
// the delayed path: a delayed delivery that fails must fail the run with
// the root cause, as a blocking Send does, instead of leaving the gather
// waiting forever. DelayRate 1 delays every broadcast.
func TestLossyDelayedSendErrorFailsTheRun(t *testing.T) {
	boom := errors.New("the network ate the frame")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err := Run(ctx, testProblem(), Options{
		Nodes: 2, FaultTolerance: 1, Adversary: Adversary{DelayRate: 1, MaxDelay: time.Millisecond},
		NewTransport: func(k int) (Transport, error) {
			return &erroringTransport{BroadcastBus: NewBroadcastBus(k), err: boom}, nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the delayed delivery's %v", err, boom)
	}
}

// forgingTransport injects a forged message before delegating the
// honest send — the in-memory stand-in for a hostile network peer.
type forgingTransport struct {
	*BroadcastBus
	forge NodeShares
	once  sync.Once
}

func (t *forgingTransport) Send(ctx context.Context, m NodeShares) error {
	t.once.Do(func() { _ = t.BroadcastBus.Send(ctx, t.forge) })
	return t.BroadcastBus.Send(ctx, m)
}

// TestMalformedShapeIsDeliveryFaultNotPanic: a structurally valid
// message whose claimed geometry does not match the run (wrong range,
// wrong prime count) used to reach the decoders' unchecked indexing.
// In quorum mode it must now count as its sender's delivery fault and
// the run must recover the baseline proof; in strict mode it must be
// a typed refusal. Never a panic.
func TestMalformedShapeIsDeliveryFaultNotPanic(t *testing.T) {
	ctx := context.Background()
	p := testProblem()
	baseline, _, err := Run(ctx, p, Options{Nodes: 8, FaultTolerance: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The forged message claims node 3 with an absurd range and no
	// prime payloads — first copy wins, so it shadows the honest one.
	forge := NodeShares{ID: 3, Lo: 0, Hi: 1, Vals: nil}
	proof, rep, err := Run(ctx, p, Options{
		Nodes: 8, FaultTolerance: 4, MaxErasures: 1, GatherGrace: 2 * time.Second,
		NewTransport: func(k int) (Transport, error) {
			return &forgingTransport{BroadcastBus: NewBroadcastBus(2 * k), forge: forge}, nil
		},
	})
	if err != nil {
		t.Fatalf("quorum run with forged shape: %v", err)
	}
	// Node 3 must be erased (its only delivery was the forged shape);
	// the forged message also counted toward the quorum, so an honest
	// straggler may legitimately ride along in the missing set — the
	// budget covers it either way.
	erased3 := false
	for _, id := range rep.MissingNodes {
		erased3 = erased3 || id == 3
	}
	if !erased3 {
		t.Fatalf("MissingNodes = %v, want node 3 erased", rep.MissingNodes)
	}
	if err := proofsEqual(baseline, proof); err != nil {
		t.Fatalf("proof differs after absorbing forged shape: %v", err)
	}
	// Strict mode: typed refusal, not a panic, not a hang.
	_, _, err = Run(ctx, p, Options{
		Nodes: 8, FaultTolerance: 4,
		NewTransport: func(k int) (Transport, error) {
			return &forgingTransport{BroadcastBus: NewBroadcastBus(2 * k), forge: forge}, nil
		},
	})
	if err == nil {
		t.Fatal("strict run accepted a malformed share shape")
	}
}

// TestForgedErrFrameIsDeliveryFaultInQuorumMode: an in-band error
// message is trusted in strict mode (fail loudly with the node's
// report) but in quorum mode the sender just contributed no shares —
// a delivery fault within budget, which also denies an unauthenticated
// network peer the one-frame kill switch of mailing a forged error.
func TestForgedErrFrameIsDeliveryFaultInQuorumMode(t *testing.T) {
	ctx := context.Background()
	p := testProblem()
	baseline, _, err := Run(ctx, p, Options{Nodes: 8, FaultTolerance: 4})
	if err != nil {
		t.Fatal(err)
	}
	forge := NodeShares{ID: 2, Err: errors.New("forged: the node is fine")}
	newTransport := func(k int) (Transport, error) {
		return &forgingTransport{BroadcastBus: NewBroadcastBus(2 * k), forge: forge}, nil
	}
	// Quorum mode: the forged report erases node 2 at worst; the
	// honest copy of node 2's shares arrives later and may still win.
	proof, rep, err := Run(ctx, p, Options{
		Nodes: 8, FaultTolerance: 4, MaxErasures: 1, GatherGrace: 2 * time.Second,
		NewTransport: newTransport,
	})
	if err != nil {
		t.Fatalf("quorum run failed on a forged error report: %v", err)
	}
	if err := proofsEqual(baseline, proof); err != nil {
		t.Fatalf("proof differs: %v", err)
	}
	_ = rep
	// Strict mode: the report is trusted and fails the run.
	_, _, err = Run(ctx, p, Options{Nodes: 8, FaultTolerance: 4, NewTransport: newTransport})
	if err == nil || !strings.Contains(err.Error(), "forged: the node is fine") {
		t.Fatalf("strict run: err = %v, want the in-band report", err)
	}
}
