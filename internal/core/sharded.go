package core

// ShardedTransport partitions the K nodes into contiguous shards, each
// with its own in-memory bus, and bridges them with one relay goroutine
// per shard that forwards shard traffic into a central collector
// channel. It models the first step away from the paper's single
// reliable broadcast bus: delivery still succeeds, but messages cross
// an extra asynchronous hop, so cross-shard arrival order is arbitrary
// and a slow shard's messages trail the rest — exactly the conditions
// the quorum gather and erasure-tolerant decode path must absorb.

import (
	"context"
	"sync"
)

// ShardedTransport is a Transport whose nodes are partitioned into
// per-shard buses feeding a collector through relay goroutines. Safe
// for concurrent Send calls; Gather/GatherQuorum must be called from a
// single collector goroutine (the engine's), and returning from either
// shuts the relays down.
type ShardedTransport struct {
	k         int
	shards    []chan NodeShares
	collector chan NodeShares
	done      chan struct{}
	stop      sync.Once
}

var (
	_ Transport      = (*ShardedTransport)(nil)
	_ QuorumGatherer = (*ShardedTransport)(nil)
)

// NewShardedTransport builds a transport for k nodes split into the
// given number of shards (clamped to [1, k]). Buffers leave headroom
// for duplicated deliveries so a LossyTransport can wrap this one
// without ever wedging a sender.
func NewShardedTransport(k, shards int) *ShardedTransport {
	if k < 1 {
		k = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > k {
		shards = k
	}
	t := &ShardedTransport{
		k:         k,
		shards:    make([]chan NodeShares, shards),
		collector: make(chan NodeShares, 2*k+2),
		done:      make(chan struct{}),
	}
	for s := range t.shards {
		// Shard s owns nodes [s*k/shards, (s+1)*k/shards): the same
		// contiguous balanced split PointAssignment uses for points.
		size := (s+1)*k/shards - s*k/shards
		ch := make(chan NodeShares, 2*size+2)
		t.shards[s] = ch
		go t.relay(ch)
	}
	return t
}

// Shards returns the shard count.
func (t *ShardedTransport) Shards() int { return len(t.shards) }

// shardOf routes a node id to its shard; ids outside [0, k) — a
// protocol violation the collector reports — ride shard 0.
func (t *ShardedTransport) shardOf(id int) int {
	if id < 0 || id >= t.k {
		return 0
	}
	return id * len(t.shards) / t.k
}

// relay forwards one shard's traffic into the collector until the
// gather completes.
func (t *ShardedTransport) relay(ch <-chan NodeShares) {
	for {
		select {
		case m := <-ch:
			select {
			case t.collector <- m:
			case <-t.done:
				return
			}
		case <-t.done:
			return
		}
	}
}

// shutdown releases the relays (and any sender blocked on a full
// shard); idempotent.
func (t *ShardedTransport) shutdown() {
	t.stop.Do(func() { close(t.done) })
}

// Send implements Transport: the message enters its shard's bus and a
// relay carries it to the collector. After the gather has returned,
// Send succeeds as a no-op — the run no longer wants the message.
func (t *ShardedTransport) Send(ctx context.Context, m NodeShares) error {
	select {
	case t.shards[t.shardOf(m.ID)] <- m:
		return nil
	case <-t.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Gather implements Transport (strict: counts raw messages).
func (t *ShardedTransport) Gather(ctx context.Context, k int) ([]NodeShares, error) {
	defer t.shutdown()
	return gatherRaw(ctx, t.collector, k)
}

// GatherQuorum implements QuorumGatherer. With spec.KeepOpen the relays
// stay up after the gather returns — the engine may run repair rounds
// over this instance and calls Close when the run ends.
func (t *ShardedTransport) GatherQuorum(ctx context.Context, spec GatherSpec) ([]NodeShares, error) {
	if !spec.KeepOpen {
		defer t.shutdown()
	}
	return GatherShares(ctx, t.collector, spec)
}

// Close shuts the relays down (idempotent) — for callers that kept the
// transport open across gather rounds, or never reached a gather.
func (t *ShardedTransport) Close() { t.shutdown() }
