package camelot

// The Tutte line-concurrency regression, observed from the public API
// through a counting transport factory.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camelot/internal/core"
)

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
