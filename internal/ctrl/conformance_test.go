package ctrl

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"camelot/internal/core"
)

// TestCoordinatorConformance is the Coordinator's row of the Transport
// contract table in internal/core's TestTCPAndBusConformance, with real
// worker daemons doing the sending: Gather(ctx, k) is the strict
// GatherQuorum, gathers leave the coordinator open for the next round,
// and Close is idempotent, releases a reader blocked on a full gather
// channel, ends the workers and leaves no goroutine behind. (Send is not
// part of the row: a coordinator's senders are its workers.)
func TestCoordinatorConformance(t *testing.T) {
	const k = 3
	before := runtime.NumGoroutine()
	ctx := testCtx(t)
	co, err := NewCoordinator(k, Config{Kind: "ctrl-poly", Instance: []byte("d=5 salt=3"), MinWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for i := range werrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			werrs[i] = RunWorker(context.Background(), WorkerConfig{Join: co.Addr()}, parsePolyInstance)
		}()
	}
	assign := func(round int) {
		t.Helper()
		specs := make([]core.AssignSpec, k)
		for owner := range specs {
			specs[owner] = core.AssignSpec{
				Owner: owner, Sponsor: owner, Round: round, Lo: 2 * owner, Hi: 2*owner + 2,
				Width: 1, Primes: []uint64{12289}, K: k,
			}
		}
		if _, err := co.AssignRanges(ctx, specs, nil); err != nil {
			t.Fatal(err)
		}
	}
	// values is what a gather heard, by owner; it fails the test unless
	// every owner was heard exactly at the wanted round.
	values := func(msgs []core.NodeShares, err error, round int) [][][][]uint64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out := make([][][][]uint64, k)
		for _, m := range msgs {
			if m.Err != nil || m.Round != round || m.ID < 0 || m.ID >= k {
				t.Fatalf("round %d gathered %+v", round, m)
			}
			out[m.ID] = m.Vals
		}
		for owner, v := range out {
			if v == nil {
				t.Fatalf("round %d: owner %d unheard", round, owner)
			}
		}
		return out
	}
	assign(0)
	msgs, err := co.Gather(ctx, k)
	byCount := values(msgs, err, 0)
	assign(0)
	msgs, err = co.GatherQuorum(ctx, core.GatherSpec{K: k, Quorum: k, Strict: true})
	if bySpec := values(msgs, err, 0); !reflect.DeepEqual(byCount, bySpec) {
		t.Fatal("Gather(ctx, k) and its strict GatherQuorum heard different shares")
	}
	assign(1)
	msgs, err = co.GatherQuorum(ctx, core.GatherSpec{K: k, Quorum: k, Grace: time.Second, Round: 1})
	if later := values(msgs, err, 1); !reflect.DeepEqual(byCount, later) {
		t.Fatal("a later round over the same coordinator heard different shares")
	}

	// Far more frames than the gather channel holds and nobody gathering:
	// Close must release the blocked reader.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10*cap(co.ch); i++ {
			co.inject(core.NodeShares{ID: i % k})
		}
	}()
	time.Sleep(20 * time.Millisecond)
	co.Close()
	co.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reader still blocked on the gather channel after Close")
	}
	wg.Wait()
	for i, werr := range werrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after Close", before, n)
	}
}
