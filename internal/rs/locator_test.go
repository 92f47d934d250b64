package rs

// The forward-difference locator against the subproduct tree's
// evaluation, PointSet.Eval, over the unerased points of the grid.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"camelot/internal/ff"
	"camelot/internal/poly"
)

// locatorPoly returns a polynomial of degree exactly t with a root at each
// of the given grid points (at most t of them) and random other factors.
func locatorPoly(rng *rand.Rand, r *poly.Ring, t int, roots []int) []uint64 {
	f := r.Field()
	v := make([]uint64, t-len(roots)+1)
	for i := range v {
		v[i] = rng.Uint64() % f.Q
	}
	v[len(v)-1] = 1 + rng.Uint64()%(f.Q-1)
	for _, x := range roots {
		v = r.Mul(v, []uint64{f.Neg(uint64(x) % f.Q), 1})
	}
	return v
}

// diffLocator requires locate(v, e, mask) to be PointSet.Eval of v over
// the unerased points of 0..e-1, in order; ps is nil or a set over them.
func diffLocator(t *testing.T, name string, r *poly.Ring, v []uint64, e int, mask []bool, ps *poly.PointSet) {
	t.Helper()
	want := r.EvalMany(v, unerased(e, mask)) // PointSet.Eval on a set built for evaluation alone
	if ps != nil {
		want = ps.Eval(v)
	}
	if got := locate(r, v, e, mask); !slices.Equal(got, want) {
		t.Fatalf("%s: the forward-difference locator differs from PointSet.Eval", name)
	}
}

// unerased returns the points of 0..e-1 that mask (nil: none) leaves.
func unerased(e int, mask []bool) []uint64 {
	var pts []uint64
	for i := range e {
		if mask == nil || !mask[i] {
			pts = append(pts, uint64(i))
		}
	}
	return pts
}

// TestConsecutiveLocatorMatchesEval diffs the locator against
// PointSet.Eval over GF(97), GF(257) and a 61-bit NTT prime, for every
// degree t from 1 to the radius on codes of length 64, 257 (the whole of
// GF(257)), 1157 (the decode_bound geometry) and 1535, and on the shortest grid
// e = t+1. v has roots on the grid, and the masks erase some of them.
func TestConsecutiveLocatorMatchesEval(t *testing.T) {
	q61, _, err := ff.NTTPrime(1<<61, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	for _, q := range []uint64{97, 257, q61} {
		r := poly.NewRing(ff.Must(q))
		top := 0 // the largest radius of a code over this field
		for _, code := range []struct{ e, d int }{{64, 1}, {257, 2}, {1157, 756}, {1535, 1134}} {
			if uint64(code.e) > q {
				continue
			}
			e, radius := code.e, (code.e-code.d-1)/2
			top = max(top, radius)
			pool := rng.Perm(e)[:radius] // v's roots come from here
			erasing := make([]bool, e)   // a third of the pool and some other points
			for _, i := range append(pool[:radius/3], rng.Perm(e)[:e/8]...) {
				erasing[i] = true
			}
			for _, mask := range [][]bool{nil, erasing} {
				ps := r.NewPointSet(unerased(e, mask))
				for deg := 1; deg <= radius; deg++ {
					v := locatorPoly(rng, r, deg, pool[:rng.Intn(deg+1)])
					diffLocator(t, fmt.Sprintf("GF(%d) e=%d t=%d erased=%v", q, e, deg, mask != nil), r, v, e, mask, ps)
				}
			}
		}
		for deg := 1; deg <= top; deg++ { // e = t+1
			mask := make([]bool, deg+1)
			mask[rng.Intn(deg+1)] = true
			v := locatorPoly(rng, r, deg, rng.Perm(deg + 1)[:rng.Intn(deg+1)])
			for _, m := range [][]bool{nil, mask} {
				diffLocator(t, fmt.Sprintf("GF(%d) e=t+1=%d erased=%v", q, deg+1, m != nil), r, v, deg+1, m, nil)
			}
		}
	}
}

// FuzzConsecutiveLocator is the same property on fuzzer-chosen fields,
// lengths, degrees, roots and erasures.
func FuzzConsecutiveLocator(f *testing.F) {
	q61, _, err := ff.NTTPrime(1<<61, 4096)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), uint8(0), uint16(64), uint16(20), []byte{0xff, 0})
	f.Add(int64(2), uint8(1), uint16(257), uint16(128), []byte{1, 2, 4, 8})
	f.Add(int64(3), uint8(2), uint16(1535), uint16(200), []byte{})
	f.Add(int64(5), uint8(2), uint16(1157), uint16(200), []byte{})
	f.Add(int64(4), uint8(2), uint16(2), uint16(1), []byte{2})
	f.Fuzz(func(t *testing.T, seed int64, field uint8, eRaw, tRaw uint16, erase []byte) {
		q := []uint64{97, 257, q61}[int(field)%3]
		e := 1 + int(eRaw)%int(min(q, 2048))
		deg := int(tRaw) % e
		rng := rand.New(rand.NewSource(seed))
		r := poly.NewRing(ff.Must(q))
		roots := rng.Perm(e)[:rng.Intn(deg+1)]
		var mask []bool
		if len(erase) > 0 {
			mask = make([]bool, e)
			for i := range mask {
				mask[i] = erase[i/8%len(erase)]>>(i%8)&1 == 1
			}
		}
		v := locatorPoly(rng, r, deg, roots)
		diffLocator(t, fmt.Sprintf("GF(%d) e=%d t=%d roots=%v mask=%v", q, e, deg, roots, mask), r, v, e, mask, nil)
	})
}
