package ctrl_test

// The facade's catalog is the coordinator/worker agreement point: a
// worker holds no problem value, only the (Kind, Instance) pair of an
// Assign manifest. For every kind, what a worker daemon running the
// facade's builder (camelot.ServeNode) evaluates from that pair must be
// bit-identical to what the coordinator's own parse of the spec
// evaluates.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"camelot"
	"camelot/internal/core"
	"camelot/internal/ctrl"
)

func TestWorkerRebuildsEveryCatalogKind(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, k := range camelot.Kinds() {
		for _, spec := range []string{k.Name, k.Name + " seed=3"} {
			w, err := camelot.ParseWorkload(spec)
			if err != nil {
				t.Fatalf("ParseWorkload(%q): %v", spec, err)
			}
			p := w.Problem
			e := p.Degree() + 1
			order := 1
			for order < 2*e {
				order <<= 1
			}
			primes, err := core.ChoosePrimes(p.NumPrimes(), max(p.MinModulus(), uint64(e)+1), order)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := e/2, min(e/2+3, e)
			want, err := core.NewPlanner(p).EvaluateShares(ctx, primes, 1, 1, 0, lo, hi)
			if err != nil {
				t.Fatalf("%s: coordinator side: %v", spec, err)
			}
			got := remoteShares(ctx, t, w, core.AssignSpec{Owner: 1, Sponsor: 1, Lo: lo, Hi: hi, Width: p.Width(), Primes: primes, K: 2})
			if got.Err != nil {
				t.Fatalf("%s: worker side: %v", spec, got.Err)
			}
			if !reflect.DeepEqual(got.Vals, want.Vals) {
				t.Errorf("%s: worker rebuilt from (%q, %q) evaluates different shares", spec, w.Kind, w.Instance)
			}
		}
	}
}

// remoteShares ships one range of w to a camelot.ServeNode daemon over
// a loopback coordinator and returns the frame it streams back.
func remoteShares(ctx context.Context, t *testing.T, w *camelot.Workload, spec core.AssignSpec) core.NodeShares {
	t.Helper()
	co, err := ctrl.NewCoordinator(2, ctrl.Config{ListenAddr: "127.0.0.1:0", Kind: w.Kind, Instance: w.Instance})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- camelot.ServeNode(ctx, camelot.NodeConfig{Join: co.Addr()}) }()
	if err := co.AssignRanges(ctx, []core.AssignSpec{spec}); err != nil {
		t.Fatal(err)
	}
	frames, err := co.GatherQuorum(ctx, core.GatherSpec{K: 2, Quorum: 1})
	co.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("worker daemon: %v", err)
	}
	return frames[0]
}
