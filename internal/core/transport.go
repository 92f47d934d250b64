package core

// The transport layer carries the protocol's single message kind — a
// node's broadcast of its evaluated shares — from the prepare stage to
// the decode stage. The paper's model is a reliable broadcast bus; the
// Transport interface keeps that as the default, and TCPTransport
// carries the same messages as frames over loopback sockets. A
// transport only moves messages: what a faulty node sends, and whether
// its message is lost, repeated or held on the way, was decided by the
// sender under the run's Adversary record before Send (see
// adversary.go). A message that never arrives is a delivery fault — the
// collector reports the missing senders and the decode stage treats
// their coordinates as Reed–Solomon erasures — while a message that
// arrives with bad values is a content fault the decoder corrects.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// NodeShares is the broadcast message a node contributes: its
// evaluations for every prime, coordinate, and owned point.
type NodeShares struct {
	// ID is the node whose point range the message carries — the range
	// owner, which is what every decoder indexes by. In a repair round
	// the owner is dead and a surviving sponsor computes and sends the
	// range on its behalf; ID still names the owner.
	ID int
	// From is the logical node that sent the message: the owner itself
	// in round 0, the sponsoring survivor in a repair round — in every
	// shape, a remote worker acting for the node included. The sender's
	// faults attach to it, not to the range owner — see Origin.
	From int
	// Round is the gather round the message belongs to: 0 for the
	// initial prepare gather, n ≥ 1 for the n-th repair round. A
	// collector drops frames from any other round as delivery faults —
	// a stale duplicate must never be double-counted into a later
	// round's quorum.
	Round int
	// Lo, Hi delimit the owned point-index range [Lo, Hi).
	Lo, Hi int
	// Vals is indexed [prime][coord][point-Lo]: what every recipient
	// reads, unless Views is set.
	Vals [][][]uint64
	// Views, set only by an equivocating sender (Vals is then nil), holds
	// one view per recipient, indexed [recipient][prime][coord][point-Lo]:
	// one message per (owner, round) still, whatever the sender does.
	Views [][][][]uint64
	// Elapsed is the node's evaluation time.
	Elapsed time.Duration
	// Err is a node-side evaluation failure, reported in-band so the
	// collector can attribute it.
	Err error
}

// Origin returns the message's sender: the sponsor (From) for a
// repair-round message, the owner (ID) otherwise. Round > 0 is the
// discriminant — From's zero value is a valid node id, so round-0
// messages constructed without From must still originate from ID.
func (m NodeShares) Origin() int {
	if m.Round > 0 {
		return m.From
	}
	return m.ID
}

// View returns what recipient r reads from the message: its own view
// when the sender equivocated, the broadcast Vals otherwise.
func (m NodeShares) View(r int) [][][]uint64 {
	if m.Views != nil {
		return m.Views[r]
	}
	return m.Vals
}

// Transport moves NodeShares messages from compute nodes to the
// collector. It is the whole contract: the engine calls these four
// methods and asks a transport nothing else (RemoteAssigner is the one
// one optional capability). Implementations must be
// safe for concurrent Send calls; gathers run on a single collector
// goroutine, and no gather ends the transport — a run gathers once per
// round over the same instance, and whoever built the transport (the
// engine, for a run's) calls Close when done with it.
type Transport interface {
	// Send broadcasts one node's shares. It may block (a bounded or
	// networked transport) and must honor ctx cancellation. After Close
	// it is a no-op: nobody wants the message anymore.
	Send(ctx context.Context, m NodeShares) error
	// Gather is the strict round-0 gather: GatherQuorum with
	// {K: k, Quorum: k, Strict: true}. It returns once all k senders
	// have been heard (or ctx is cancelled).
	Gather(ctx context.Context, k int) ([]NodeShares, error)
	// GatherQuorum returns when all K distinct senders have been heard,
	// when Quorum distinct senders have been heard (plus a non-blocking
	// drain of whatever else is already buffered, so an arrived message
	// is never erased just because the quorum filled first), or when the
	// grace timer fires — whichever comes first. The returned slice is
	// the raw message stream: duplicates are preserved (collectShares
	// dedups them) and only counting is by distinct sender. Every
	// implementation in the tree is GatherShares over its channel.
	GatherQuorum(ctx context.Context, spec GatherSpec) ([]NodeShares, error)
	// Close ends the transport's world: goroutines and sockets are
	// released, a Send blocked on a full channel returns, later Sends
	// are no-ops. Idempotent.
	Close()
}

// GatherSpec parameterizes a quorum gather.
type GatherSpec struct {
	// K is the total number of expected senders (node ids 0..K-1).
	K int
	// Quorum is the number of distinct senders sufficient to return:
	// the engine sets K - MaxErasures. Clamped to [1, K].
	Quorum int
	// Grace bounds how long the collector waits between message
	// arrivals before giving up on stragglers: the timer arms on the
	// first arrival, resets on every new distinct sender, and when it
	// fires the gather returns whatever arrived — even below quorum
	// (the decode stage then judges whether the erasures are
	// recoverable). Before the first message there is no deadline —
	// compute time is unbounded and the collector cannot tell a slow
	// run from a dead network, so a gather that never hears anyone
	// waits for SendsDone or ctx. Grace <= 0 disables the timer
	// entirely.
	Grace time.Duration
	// SendsDone, when non-nil, is closed by the caller once no further
	// Send can occur (the engine closes it when its nodes' wait returns).
	// The gather then allows one final grace period for the transport's
	// in-flight hop to drain and returns whatever arrived — without this
	// signal, a network that lost *every* message would never trip the
	// first-arrival grace timer and the gather would wait for ctx alone.
	SendsDone <-chan struct{}
	// Strict marks the gather of a run that tolerates no delivery fault
	// (Options.MaxErasures == 0): no sender is given up on while sending
	// may still occur, so the grace timer stays unarmed until SendsDone
	// closes (with SendsDone nil, never). From then on a sender still
	// unheard is lost, not slow, and the gather hands over the partial
	// result for the engine to refuse by name. Transport.Gather is the
	// strict gather with no SendsDone: it waits for all k or ctx.
	Strict bool
	// Round is the gather round this spec serves. Messages carrying any
	// other NodeShares.Round are dropped unseen — not counted toward
	// the quorum, not returned, not allowed to arm the grace timer. A
	// round-0 broadcast delayed past its own gather must read as a
	// delivery fault in its round, never as a phantom arrival in the
	// repair round that follows.
	Round int
}

// TransportFactory builds a fresh Transport for a run of k nodes, or
// says why it cannot (a bind failure, a node count the transport was not
// built for); round 0 returns that as the run's error. A factory rather
// than an instance, because a Transport holds per-run message state
// while Options values are routinely reused across runs.
type TransportFactory func(k int) (Transport, error)

// AssignSpec names one point range the engine wants evaluated: the
// logical node that owns it (what decoders index by), the one that
// sends it, the gather round its frames must carry, the geometry a
// worker needs to reproduce the evaluation bit for bit (Evaluate is
// deterministic in (q, x0), so any worker produces the same words) and
// the run's fault record, applied as the sending node. The problem
// itself travels out of band: an executor holds its planner.
type AssignSpec struct {
	// Owner is the logical node id in [0, K) whose range this is; the
	// frames that come back carry it as NodeShares.ID.
	Owner int
	// Sponsor is the logical node that evaluates and sends the range:
	// the owner in round 0, a survivor in a repair round. The frames
	// carry it as NodeShares.From.
	Sponsor int
	// Round tags the gather round the resulting frames belong to
	// (NodeShares.Round; 0 for the initial prepare, >= 1 for repairs).
	Round int
	// Lo, Hi bound the owned point range [Lo, Hi).
	Lo, Hi int
	// Width is the proof polynomial's coordinate count.
	Width int
	// Primes are the proof moduli, in proof order.
	Primes []uint64
	// K is the run's node count, the number of views an equivocating
	// sponsor sends.
	K int
	// Adversary is the run's fault record.
	Adversary Adversary
}

// RemoteAssigner gets a round's ranges evaluated and sent. The engine
// assigns to an Executor over the transport's Send unless the transport
// is an assigner itself: the ctrl coordinator ships each range to a
// worker daemon, whose Executor streams the frames back. AssignRanges
// returns once every range is under way, and progress hears the
// (point, prime) units done; wait returns once no further message of
// the call can be sent, with the first failure, or once ctx ends.
// Whether the messages arrived is judged by the gather.
type RemoteAssigner interface {
	AssignRanges(ctx context.Context, specs []AssignSpec, progress func(units int)) (wait func() error, err error)
}

// BroadcastBus is the default in-memory transport: a reliable,
// order-preserving broadcast channel with capacity for every node's
// message, so Send never blocks in a fault-free run.
type BroadcastBus struct {
	ch   chan NodeShares
	done chan struct{}
	stop sync.Once
}

var _ Transport = (*BroadcastBus)(nil)

// NewBroadcastBus returns a bus buffered for k messages.
func NewBroadcastBus(k int) *BroadcastBus {
	if k < 1 {
		k = 1
	}
	return &BroadcastBus{ch: make(chan NodeShares, k), done: make(chan struct{})}
}

// Send implements Transport.
func (b *BroadcastBus) Send(ctx context.Context, m NodeShares) error {
	select {
	case b.ch <- m:
		return nil
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Gather implements Transport.
func (b *BroadcastBus) Gather(ctx context.Context, k int) ([]NodeShares, error) {
	return b.GatherQuorum(ctx, GatherSpec{K: k, Quorum: k, Strict: true})
}

// GatherQuorum implements Transport.
func (b *BroadcastBus) GatherQuorum(ctx context.Context, spec GatherSpec) ([]NodeShares, error) {
	return GatherShares(ctx, b.ch, spec)
}

// Close implements Transport: it releases senders blocked on a full bus
// (duplicated deliveries can overfill it).
func (b *BroadcastBus) Close() { b.stop.Do(func() { close(b.done) }) }

// GatherShares is the one quorum-gather loop over a message channel;
// see Transport.GatherQuorum for the contract. Every transport's
// GatherQuorum is this function, and it is exported so that a transport
// outside the package (the control-protocol coordinator in
// internal/ctrl) has the engine's gather semantics byte for byte:
// distinct-sender counting, round filtering, grace timing, and the
// post-quorum drain.
func GatherShares(ctx context.Context, ch <-chan NodeShares, spec GatherSpec) ([]NodeShares, error) {
	if spec.Quorum > spec.K {
		spec.Quorum = spec.K
	}
	if spec.Quorum < 1 {
		spec.Quorum = 1
	}
	// The grace timer arms on the first arrival, not at gather begin:
	// until someone has finished computing there is nothing to measure
	// stragglers against, and a slow problem must not read as loss.
	var timerC <-chan time.Time
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	hold := spec.Strict // a strict gather arms no timer before SendsDone closes
	armTimer := func() {
		if spec.Grace <= 0 || hold {
			return
		}
		if timer == nil {
			timer = time.NewTimer(spec.Grace)
			timerC = timer.C
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(spec.Grace)
	}
	distinct := make(map[int]bool, spec.K)
	var out []NodeShares
	for len(distinct) < spec.Quorum {
		select {
		case m := <-ch:
			if m.Round != spec.Round {
				// A frame from another gather round — a round-0 copy a
				// slow network delivered into the repair round, or a
				// replayed stale frame. It is this round's delivery
				// fault for its owner, never an arrival: dropping it
				// unseen keeps it out of the quorum count, the output,
				// and the grace timer.
				continue
			}
			out = append(out, m)
			if m.ID >= 0 && m.ID < spec.K && !distinct[m.ID] {
				distinct[m.ID] = true
				// Every new sender renews the stragglers' grace, so a
				// slow-but-alive network is never cut off mid-stream.
				armTimer()
			}
		case <-spec.SendsDone:
			// No further Send can occur: whatever is still coming sits
			// in the transport's in-flight hop. Give it one grace to
			// drain, then hand over the partial gather. With the timer
			// disabled, settle for what is already buffered.
			spec.SendsDone = nil
			hold = false
			if spec.Grace <= 0 {
				for {
					select {
					case m := <-ch:
						if m.Round != spec.Round {
							continue
						}
						out = append(out, m)
					default:
						return out, nil
					}
				}
			}
			armTimer()
		case <-timerC:
			return out, nil // deadline: hand over what arrived
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Quorum reached: drain whatever is already buffered without
	// waiting further. A sender whose message has in fact arrived must
	// not be erased just because the quorum filled first — erasures
	// spend Reed–Solomon budget that content errors may need. The cap
	// bounds the drain against a transport still actively duplicating.
	for i := 0; i < 2*spec.K; i++ {
		select {
		case m := <-ch:
			if m.Round != spec.Round {
				continue
			}
			out = append(out, m)
		default:
			return out, nil
		}
	}
	return out, nil
}

// collectShares organizes gathered messages: it dedups repeated
// deliveries by (node, round) — first copy wins — surfaces any in-band
// node failure, and reports which of the k expected senders were never
// heard from. A message from any round other than the requested one is
// skipped as if it never arrived: a stale round-0 frame replayed during
// a repair round is that round's delivery fault, never a counted
// delivery (the quorum gather filters these too; this is the defense
// for callers that bypass it). It errors only on protocol violations
// (a sender outside [0, k)) and node-side failures — missing senders
// are the caller's policy decision (the engine fails a strict run and
// erases a quorum one).
func collectShares(msgs []NodeShares, k, round int) (delivered []NodeShares, missing []int, err error) {
	all := make([]NodeShares, k)
	seen := make([]bool, k)
	for _, m := range msgs {
		if m.Round != round {
			continue // another round's frame: for this round, never delivered
		}
		if m.ID < 0 || m.ID >= k {
			return nil, nil, fmt.Errorf("transport delivered message from unknown node %d", m.ID)
		}
		if seen[m.ID] {
			continue // duplicated delivery; the first copy already counted
		}
		if m.Err != nil {
			return nil, nil, m.Err
		}
		seen[m.ID] = true
		all[m.ID] = m
	}
	delivered = make([]NodeShares, 0, k)
	for id, ok := range seen { // ascending, so both outputs sort by id
		if ok {
			delivered = append(delivered, all[id])
		} else {
			missing = append(missing, id)
		}
	}
	return delivered, missing, nil
}
