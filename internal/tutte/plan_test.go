package tutte

import (
	"reflect"
	"sync"
	"testing"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/graph"
)

// TestEvaluateBlockMatchesEvaluate: the compiled plan hoists every
// x0-independent ingredient of the node function (power tables, S2
// slices, f12 factors); the remaining per-point arithmetic must stay
// bit-identical to Evaluate across seeds, primes, and the full
// width-(n+1) row. A shared plan is also exercised from concurrent
// goroutines so the race detector validates the hoisted state is
// read-only.
func TestEvaluateBlockMatchesEvaluate(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		mg := graph.RandomMultigraph(6, 8, seed)
		for _, r := range []uint64{1, 3} {
			p, err := NewProblem(mg, r)
			if err != nil {
				t.Fatal(err)
			}
			primes, err := core.ChoosePrimes(2, p.MinModulus(), int(seed))
			if err != nil {
				t.Fatal(err)
			}
			xs := []uint64{0, 1, 2, 7, 100, 54321, 1 << 19}
			for _, q := range primes {
				f, err := ff.New(q)
				if err != nil {
					t.Fatal(err)
				}
				pl, err := p.Compile(f)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := pl.EvaluateBlock(xs)
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range xs {
					want, err := p.Evaluate(q, x)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rows[i], want) {
						t.Fatalf("r=%d q=%d x=%d: block %v != point %v", r, q, x, rows[i], want)
					}
				}
				var wg sync.WaitGroup
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got, err := pl.EvaluateBlock(xs)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(got, rows) {
							t.Errorf("r=%d q=%d: concurrent block diverged", r, q)
						}
					}()
				}
				wg.Wait()
			}
		}
	}
}
