package ctrl_test

// The facade's catalog is the coordinator/worker agreement point: a
// worker holds no problem value, only the (Kind, Instance) pair of an
// Assign manifest. For every kind, what the worker's compute path
// evaluates from that pair must be bit-identical to what the
// coordinator's own parse of the spec evaluates.

import (
	"context"
	"reflect"
	"testing"

	"camelot"
	"camelot/internal/core"
	"camelot/internal/ctrl"
)

func TestWorkerRebuildsEveryCatalogKind(t *testing.T) {
	ctx := context.Background()
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
			want, err := core.NewPlanner(p).EvaluateShares(ctx, primes, 1, 0, 0, lo, hi)
			if err != nil {
				t.Fatalf("%s: coordinator side: %v", spec, err)
			}
			got, err := ctrl.EvaluateAssign(ctx, 0, ctrl.Assign{
				Kind: w.Kind, Instance: w.Instance,
				Owner: 1, Lo: lo, Hi: hi, Width: p.Width(), Primes: primes,
			}, map[string]*core.Planner{})
			if err != nil {
				t.Fatalf("%s: worker side: %v", spec, err)
			}
			if !reflect.DeepEqual(got.Vals, want.Vals) {
				t.Errorf("%s: worker rebuilt from (%q, %q) evaluates different shares", spec, w.Kind, w.Instance)
			}
		}
	}
}
