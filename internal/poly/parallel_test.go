package poly

// Equivalence tests for the lazy/parallel arithmetic paths (satellite of
// ISSUE 6): transformLazy against the canonical reference transform, and
// every parallel tree walk against its serial execution, bit for bit.
// CI's -race leg runs these with real goroutine interleavings.

import (
	"math/rand"
	"sync"
	"testing"

	"camelot/internal/ff"
	"camelot/internal/par"
)

// transform is the fully canonical reference for transformLazy: the same
// stage structure and twiddle table, one Field.Mul per butterfly, every
// sum reduced at once.
func transform(f ff.Field, a []uint64, p *nttPlan, tw []twiddle) {
	for i, ri := range p.rev {
		if int32(i) < ri {
			a[i], a[ri] = a[ri], a[i]
		}
	}
	off := 0
	for length := 2; length <= p.n; length <<= 1 {
		half := length >> 1
		for start := 0; start < p.n; start += length {
			for j, w := range tw[off : off+half] {
				u, v := a[start+j], f.Mul(a[start+half+j], w.w)
				a[start+j], a[start+half+j] = f.Add(u, v), f.Sub(u, v)
			}
		}
		off += half
	}
}

func TestTransformLazyMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		restore := par.SetParallelism(workers)
		for _, n := range []int{2, 4, 8, 64, 512, 4096, 8192} {
			r := testRing(t)
			f := r.f
			rng := rand.New(rand.NewSource(int64(n)))
			a := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64() % f.Q
			}
			p := r.plan(n)
			for _, tw := range [][]twiddle{p.fwd, p.inv} {
				want := make([]uint64, n)
				copy(want, a)
				transform(f, want, p, tw)
				got := make([]uint64, n)
				copy(got, a)
				transformLazy(f, got, p, tw)
				ff.ReduceVec4Q(got, f.Q)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d n=%d: transformLazy[%d] = %d, reference %d", workers, n, i, got[i], want[i])
					}
				}
			}
		}
		restore()
	}
}

// TestTransformLazyRangeInvariant checks the documented [0, 4q) bound on
// lazy residues, which the pointwise-product stage of mulNTT relies on.
func TestTransformLazyRangeInvariant(t *testing.T) {
	n := 8192
	r := testRing(t)
	f := r.f
	rng := rand.New(rand.NewSource(99))
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % f.Q
	}
	p := r.plan(n)
	transformLazy(f, a, p, p.fwd)
	for i, v := range a {
		if v >= 4*f.Q {
			t.Fatalf("lazy residue a[%d] = %d breaks the [0,4q) invariant (q=%d)", i, v, f.Q)
		}
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	r := testRing(t)
	rng := rand.New(rand.NewSource(5))
	a := make([]uint64, 6000)
	b := make([]uint64, 5000)
	for i := range a {
		a[i] = rng.Uint64() % r.f.Q
	}
	for i := range b {
		b[i] = rng.Uint64() % r.f.Q
	}
	restore := par.SetParallelism(1)
	want := r.Mul(a, b)
	restore()
	restore = par.SetParallelism(4)
	got := r.Mul(a, b)
	restore()
	if len(got) != len(want) {
		t.Fatalf("parallel Mul length %d, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parallel Mul[%d] = %d, serial %d", i, got[i], want[i])
		}
	}
}

func TestEvalManyInterpolateParallelMatchesSerial(t *testing.T) {
	r := testRing(t)
	rng := rand.New(rand.NewSource(21))
	n := 2048
	points := make([]uint64, n)
	for i := range points {
		points[i] = uint64(i)
	}
	coeffs := make([]uint64, 1500)
	for i := range coeffs {
		coeffs[i] = rng.Uint64() % r.f.Q
	}

	restore := par.SetParallelism(1)
	wantVals := r.EvalMany(coeffs, points)
	wantPoly := r.Interpolate(points, wantVals)
	wantSet := r.NewPointSet(points)
	restore()

	restore = par.SetParallelism(4)
	defer restore()
	gotVals := r.EvalMany(coeffs, points)
	gotPoly := r.Interpolate(points, gotVals)
	gotSet := r.NewPointSet(points)

	equal := func(name string, got, want []uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("parallel %s length %d, serial %d", name, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parallel %s[%d] = %d, serial %d", name, i, got[i], want[i])
				return
			}
		}
	}
	equal("EvalMany", gotVals, wantVals)
	equal("Interpolate", gotPoly, wantPoly)
	equal("PointSet.Product", gotSet.Product(), wantSet.Product())
	equal("PointSet weights", gotSet.invW, wantSet.invW)

	// One shared point set walked from four goroutines at once: every
	// walk only reads the set, so each must reproduce the serial answers.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				equal("shared PointSet.Eval", wantSet.Eval(coeffs), wantVals)
				equal("shared PointSet.Interpolate", wantSet.Interpolate(wantVals), wantPoly)
			}
		}()
	}
	wg.Wait()
}
