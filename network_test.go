package camelot

// Facade-level tests for the networked transport options and the Tutte
// line-concurrency regression, both observed from the public API.

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camelot/internal/core"
)

// TestTCPFacadeProofBitIdentical is the acceptance criterion at the
// public surface: a run configured with the TCP options over loopback
// produces a proof bit-identical to the default bus run for the same
// seed and problem.
func TestTCPFacadeProofBitIdentical(t *testing.T) {
	ctx := context.Background()
	g := RandomGraph(24, 0.3, 7)
	p, err := NewTriangleProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...ClusterOption) []byte {
		t.Helper()
		cl := NewCluster(append([]ClusterOption{WithNodes(5)}, opts...)...)
		defer cl.Close()
		proof, rep, err := cl.Submit(ctx, p, WithSeed(3), WithFaultTolerance(2)).Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified {
			t.Fatal("run not verified")
		}
		data, err := proof.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bus := run()
	tcp := run(WithListenAddr("127.0.0.1:0"))
	if !bytes.Equal(bus, tcp) {
		t.Fatal("TCP run's proof differs from the bus run's")
	}
}

// TestTCPFacadeLossyRecovers drives WithListenAddr composed with
// WithLossyTransport: drops within the erasure budget off a real
// socket still recover the identical proof.
func TestTCPFacadeLossyRecovers(t *testing.T) {
	ctx := context.Background()
	g := RandomGraph(20, 0.3, 7)
	p, err := NewTriangleProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	const k, faults = 8, 12 // ~22 points per node, budget 24 covers one node
	calm := NewCluster(WithNodes(k))
	defer calm.Close()
	calmProof, _, err := calm.Submit(ctx, p, WithSeed(3), WithFaultTolerance(faults)).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lossy := NewCluster(
		WithNodes(k),
		WithListenAddr("127.0.0.1:0"),
		WithLossyTransport(LossyConfig{Seed: 9, DropNodes: []int{4}}),
	)
	defer lossy.Close()
	proof, rep, err := lossy.Submit(ctx, p,
		WithSeed(3), WithFaultTolerance(faults), WithMaxErasures(1)).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MissingNodes) != 1 || rep.MissingNodes[0] != 4 {
		t.Fatalf("MissingNodes = %v, want [4]", rep.MissingNodes)
	}
	a, _ := calmProof.MarshalBinary()
	b, _ := proof.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("lossy TCP proof differs from calm run")
	}
}

// countingFactory wraps the default bus factory and tracks how many
// runs are between transport construction (the very start of a run's
// prepare stage, right after its share buffers were allocated) and
// gather completion — a public-API view of lines in flight.
type countingFactory struct {
	active, maxActive atomic.Int32
	total             atomic.Int32
}

func (f *countingFactory) factory(k int) (Transport, error) {
	f.total.Add(1)
	n := f.active.Add(1)
	for {
		m := f.maxActive.Load()
		if n <= m || f.maxActive.CompareAndSwap(m, n) {
			break
		}
	}
	return &countingTransport{BroadcastBus: core.NewBroadcastBus(k), f: f}, nil
}

type countingTransport struct {
	*core.BroadcastBus
	f    *countingFactory
	once sync.Once
}

func (t *countingTransport) done() { t.once.Do(func() { t.f.active.Add(-1) }) }

func (t *countingTransport) Gather(ctx context.Context, k int) ([]NodeShares, error) {
	defer t.done()
	// Overlap window: hold the "in flight" state briefly so concurrent
	// line starts are observed even when each line runs fast.
	defer time.Sleep(time.Millisecond)
	return t.BroadcastBus.Gather(ctx, k)
}

func (t *countingTransport) GatherQuorum(ctx context.Context, spec GatherSpec) ([]NodeShares, error) {
	defer t.done()
	defer time.Sleep(time.Millisecond)
	return t.BroadcastBus.GatherQuorum(ctx, spec)
}

// TestTuttePolynomialBoundsLineStarts is the call-site regression for
// the FK line fix: TuttePolynomial used to admit all m+1 lines at
// once, so every line's transport existed concurrently. With the cap,
// the number of simultaneously started runs can never exceed the
// pool width driving them.
func TestTuttePolynomialBoundsLineStarts(t *testing.T) {
	mg := RandomMultigraph(4, 9, 3) // 10 FK lines
	const width = 2
	f := &countingFactory{}
	res, err := TuttePolynomial(context.Background(), mg,
		WithMaxParallelism(width), WithTransport(f.factory), WithVerifyTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.total.Load(); got != int32(mg.M()+1) {
		t.Fatalf("%d runs observed, want %d lines", got, mg.M()+1)
	}
	if got := f.maxActive.Load(); got > width {
		t.Fatalf("%d lines in flight at once, pool width %d", got, width)
	}
	// Sanity: the bounded run still recovers a correct polynomial
	// (T(2,2) = 2^m for any multigraph).
	if got := EvalTutte(res.T, 2, 2).Int64(); got != 1<<uint(mg.M()) {
		t.Fatalf("T(2,2) = %d, want %d", got, int64(1)<<uint(mg.M()))
	}
}
