package core

// LossyTransport simulates a faulty network over any inner transport:
// seeded, per-message decisions to drop, delay, or duplicate a node's
// broadcast (reordering follows from delays and duplicate timing). The
// fate of a message is a pure function of (Seed, sender id) — not of
// the wall-clock interleaving of Send calls — so a run's delivery-fault
// pattern is reproducible no matter how the scheduler orders the
// senders, which is what lets the chaos harness assert bit-identical
// proofs across repetitions.
//
// Loss is a *delivery* fault: a dropped message simply never reaches
// the collector, which reports the sender as missing and the decode
// stage erases its coordinates. Contrast the Adversary, which corrupts
// the *content* of delivered shares. The two compose freely.

import (
	"context"
	"errors"
	"sync"
	"time"
)

// LossyConfig parameterizes the simulated faults. The zero value is a
// perfect network.
type LossyConfig struct {
	// Seed drives every per-message fate decision.
	Seed int64
	// DropNodes lists senders whose broadcasts are always lost —
	// deterministic whole-node delivery failure. This is the one crash
	// model: a crashed node costs one erasure per point it holds, and the
	// run names it in Report.MissingNodes, never among the suspects.
	DropNodes []int
	// DropRate is the probability a message is dropped.
	DropRate float64
	// DupRate is the probability a surviving message is delivered twice.
	DupRate float64
	// DelayRate is the probability a surviving message is held for a
	// fate-determined duration in (0, MaxDelay] before delivery.
	DelayRate float64
	// MaxDelay bounds the injected delay; 0 disables delays.
	MaxDelay time.Duration
}

// LossyTransport wraps an inner Transport with simulated loss. Safe for
// concurrent Send calls iff the inner transport is.
type LossyTransport struct {
	inner Transport
	cfg   LossyConfig
	drop  map[int]bool
	// mu guards the in-flight delayed deliveries, which run on their own
	// goroutines so the injected latency holds the *message*, not the
	// sending worker's pool slot. DrainSends waits for inflight to reach
	// zero (idle is closed then, if a drain is waiting) and surfaces the
	// first delivery failure (sendErr), so an asynchronous send cannot
	// silently lose the error a blocking one would have returned. Not a
	// WaitGroup: a drain abandoned on ctx would still be in Wait when the
	// next round's Send calls Add.
	mu       sync.Mutex
	inflight int
	idle     chan struct{}
	sendErr  error
}

var (
	_ Transport   = (*LossyTransport)(nil)
	_ SendDrainer = (*LossyTransport)(nil)
)

// NewLossyTransport wraps inner with the given fault model.
func NewLossyTransport(inner Transport, cfg LossyConfig) *LossyTransport {
	drop := make(map[int]bool, len(cfg.DropNodes))
	for _, id := range cfg.DropNodes {
		drop[id] = true
	}
	return &LossyTransport{inner: inner, cfg: cfg, drop: drop}
}

// NewLossyFactory returns a TransportFactory that wraps inner-built
// transports with the fault model (inner nil means the default
// BroadcastBus).
func NewLossyFactory(cfg LossyConfig, inner TransportFactory) TransportFactory {
	if inner == nil {
		inner = newBusTransport
	}
	return func(k int) (Transport, error) {
		tr, err := inner(k)
		if err != nil {
			return nil, err
		}
		return NewLossyTransport(tr, cfg), nil
	}
}

// chance maps a hash draw to [0, 1).
func chance(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// fate decides what the network does to node id's broadcast —
// deterministic in (Seed, id), independent of call order.
func (t *LossyTransport) fate(id int) (drop bool, copies int, delay time.Duration) {
	if t.drop[id] {
		return true, 0, 0
	}
	seed := uint64(t.cfg.Seed)
	if chance(garbage(seed, uint64(id), 1)) < t.cfg.DropRate {
		return true, 0, 0
	}
	copies = 1
	if chance(garbage(seed, uint64(id), 2)) < t.cfg.DupRate {
		copies = 2
	}
	if t.cfg.MaxDelay > 0 && chance(garbage(seed, uint64(id), 3)) < t.cfg.DelayRate {
		delay = 1 + time.Duration(garbage(seed, uint64(id), 4)%uint64(t.cfg.MaxDelay))
	}
	return false, copies, delay
}

// Send implements Transport: the message meets its fate on the way to
// the inner transport. A drop consumes the message silently — from the
// sender's point of view the broadcast succeeded. A delayed message is
// handed to a delivery goroutine and Send returns immediately: the
// injected latency models the *network* holding the message, so it
// must not serialize the sending workers or skew compute-time
// readings. The delivery goroutine honors the Send context — the
// engine scopes each gather round's sends to their own context and
// cancels it when the round's gather returns, so a still-pending
// delayed copy from round N is abandoned before round N+1 begins and
// can never land in a later round's gather.
// Fate (drop/copies/delay) stays a pure function of (Seed, sender id),
// where "sender" is the message's physical origin: a dead node's range
// re-sent by a surviving sponsor in a repair round rides the sponsor's
// link, so DropNodes containing the dead owner does not re-drop the
// repair — the owner's *link* is dead, the sponsor's is not. Fate is
// deliberately not re-drawn per round, which keeps loss patterns pure
// in (Seed, link) and repair outcomes schedule-independent.
func (t *LossyTransport) Send(ctx context.Context, m NodeShares) error {
	drop, copies, delay := t.fate(m.Origin())
	if drop {
		return nil
	}
	if delay > 0 {
		t.mu.Lock()
		t.inflight++
		t.mu.Unlock()
		go func() {
			var failed error
			defer func() {
				t.mu.Lock()
				if failed != nil && t.sendErr == nil {
					t.sendErr = failed
				}
				if t.inflight--; t.inflight == 0 && t.idle != nil {
					close(t.idle)
					t.idle = nil
				}
				t.mu.Unlock()
			}()
			timer := time.NewTimer(delay)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-ctx.Done():
				return
			}
			for i := 0; i < copies; i++ {
				if err := t.inner.Send(ctx, m); err != nil {
					// Abandonment via cancellation is the run winding
					// down; anything else is a delivery failure the
					// blocking path would have returned — keep it for
					// DrainSends.
					if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						failed = err
					}
					return
				}
			}
		}()
		return nil
	}
	for i := 0; i < copies; i++ {
		if err := t.inner.Send(ctx, m); err != nil {
			return err
		}
	}
	return nil
}

// DrainSends implements SendDrainer: it blocks until every delayed
// delivery handed off by Send has finished or been abandoned (the
// goroutines honor their Send context, so this terminates once the
// engine cancels sending) and returns the first delivery failure. The
// engine calls it after the last Send returns and before announcing
// SendsDone, which both restores the blocking path's error propagation
// and keeps the "no further Send can occur" signal truthful.
func (t *LossyTransport) DrainSends(ctx context.Context) error {
	t.mu.Lock()
	var idle chan struct{}
	if t.inflight > 0 {
		if t.idle == nil {
			t.idle = make(chan struct{})
		}
		idle = t.idle
	}
	t.mu.Unlock()
	if idle != nil {
		// The delivery goroutines honor their own Send contexts, but a
		// user-supplied inner transport might not be prompt about it —
		// the drain must still be interruptible by the engine's context.
		select {
		case <-idle:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sendErr
}

// Gather implements Transport by delegation. With drops configured the
// strict wait-for-all-k gather can never complete — the engine gathers
// through GatherQuorum, whose strict form ends once sending has.
func (t *LossyTransport) Gather(ctx context.Context, k int) ([]NodeShares, error) {
	return t.inner.Gather(ctx, k)
}

// GatherQuorum implements Transport by delegation.
func (t *LossyTransport) GatherQuorum(ctx context.Context, spec GatherSpec) ([]NodeShares, error) {
	return t.inner.GatherQuorum(ctx, spec)
}

// Close implements Transport by closing the inner transport. The wrapper
// itself holds no resources beyond the delayed-delivery goroutines,
// which exit on their own cancelled Send contexts or on the inner
// transport's closed Send.
func (t *LossyTransport) Close() { t.inner.Close() }
