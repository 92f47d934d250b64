package poly

// The slow forms the fast ones are held to (ISSUE 24): the quadratic
// Euclidean loop on whole polynomials that PartialXGCD was until it moved
// to the leading coefficients, and the transform-free tree walks the
// cached spectra replace. No production caller can reach either.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"camelot/internal/ff"
)

// referencePartialXGCD is the Euclidean sequence of (a, b) on every
// coefficient: one DivMod per remainder, stopping at the first of degree
// < stopDeg, the cofactor v of b carried through Mul and Sub.
func referencePartialXGCD(r *Ring, a, b []uint64, stopDeg int) (g, v []uint64) {
	r0, r1 := Trim(a), Trim(b)
	v0, v1 := []uint64(nil), []uint64{1}
	for Degree(r1) >= stopDeg {
		if len(r0) < len(r1) {
			// First step with deg a < deg b: quotient 0, remainder a.
			r0, r1 = r1, r0
			v0, v1 = v1, v0
			continue
		}
		q, rem := r.DivMod(r0, r1)
		r0, r1 = r1, rem
		v0, v1 = v1, r.Sub(v0, r.Mul(q, v1))
	}
	return r1, v1
}

// diffPartialXGCD requires of PartialXGCD(a, b, stop) the reference's
// remainder and cofactor: v equal, and u*a + v*b equal to g.
func diffPartialXGCD(t *testing.T, name string, r *Ring, a, b []uint64, stop int) {
	t.Helper()
	wantG, wantV := referencePartialXGCD(r, a, b, stop)
	u, v := r.PartialXGCD(a, b, stop)
	if !Equal(v, wantV) {
		t.Fatalf("%s: v has degree %d, the reference's %d (or differs below)", name, Degree(v), Degree(wantV))
	}
	if g := r.Add(r.Mul(u, a), r.Mul(v, b)); !Equal(g, wantG) {
		t.Fatalf("%s: u*a + v*b has degree %d, the reference remainder %d (or differs below)", name, Degree(g), Degree(wantG))
	}
}

// consecutive returns the points 0..n-1, the protocol's evaluation points.
func consecutive(n int) []uint64 {
	points := make([]uint64, n)
	for i := range points {
		points[i] = uint64(i)
	}
	return points
}

// sparsePoly is a polynomial of degree exactly deg over a small field
// with many zero coefficients, so that leading coefficients of remainders
// vanish and quotients of degree > 1 are common.
func sparsePoly(rng *rand.Rand, f ff.Field, deg int) []uint64 {
	p := randPoly(rng, f, deg)
	for i := 0; i < deg; i++ {
		if rng.Intn(3) > 0 {
			p[i] = 0
		}
	}
	return p
}

// withQuotients returns (a, b) whose Euclidean sequence has quotients of
// the given degrees, in order, down to a last remainder of degree 3.
func withQuotients(rng *rand.Rand, r *Ring, degs []int) (a, b []uint64) {
	a, b = randPoly(rng, r.f, 5), randPoly(rng, r.f, 3)
	for i := len(degs) - 1; i >= 0; i-- {
		a, b = r.Add(r.Mul(randPoly(rng, r.f, degs[i]), a), b), a
	}
	return a, b
}

func TestPartialXGCDMatchesReference(t *testing.T) {
	q61, _, err := ff.NTTPrime(1<<61, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	for _, q := range []uint64{97, 257, q61} {
		r := NewRing(ff.Must(q))
		gen := randPoly
		if q < 1<<20 {
			gen = sparsePoly
		}
		for trial := 0; trial < 150; trial++ {
			da := 1 + rng.Intn(90)
			a, b := gen(rng, r.f, da), gen(rng, r.f, rng.Intn(da+1))
			name := fmt.Sprintf("GF(%d) trial %d deg a=%d deg b=%d", q, trial, Degree(a), Degree(b))
			for _, stop := range []int{0, 1, rng.Intn(da + 1), Degree(b), Degree(b) + 1, da, da + 3} {
				diffPartialXGCD(t, fmt.Sprintf("%s stop=%d", name, stop), r, a, b, stop)
				diffPartialXGCD(t, fmt.Sprintf("%s stop=%d, deg a < deg b", name, stop), r, b, a, stop)
			}
			// Stops that land on a zero remainder: b divides a, or both
			// share a factor the sequence ends on.
			c := gen(rng, r.f, 1+rng.Intn(20))
			ac, bc := r.Mul(a, c), r.Mul(b, c)
			for _, stop := range []int{0, 1, Degree(c), Degree(c) + 1} {
				diffPartialXGCD(t, fmt.Sprintf("%s common factor of degree %d stop=%d", name, Degree(c), stop), r, ac, bc, stop)
				diffPartialXGCD(t, fmt.Sprintf("%s b | a stop=%d", name, stop), r, ac, c, stop)
			}
		}
		a := gen(rng, r.f, 40)
		for _, stop := range []int{0, 1, 40} {
			diffPartialXGCD(t, fmt.Sprintf("GF(%d) b = 0 stop=%d", q, stop), r, a, nil, stop)
			diffPartialXGCD(t, fmt.Sprintf("GF(%d) b constant stop=%d", q, stop), r, a, []uint64{5}, stop)
		}
		// Sequences built bottom up, r_{i-1} = q_i·r_i + r_{i+1}, with
		// quotients of the given degrees. A quotient of degree ≥ 2 means a
		// leading coefficient cancelled in the remainder it divides by, and
		// takes two or more passes of the fused kernel: cases the random
		// rows over the 61-bit prime all but never reach.
		for _, degs := range [][]int{{2, 2, 2}, {1, 2, 1, 3, 1, 5, 2}, {0, 3, 1, 2}, {6, 1, 4}, {1, 1, 1, 9}} {
			a, b := withQuotients(rng, r, degs)
			for stop := 0; stop <= Degree(a)+1; stop++ {
				diffPartialXGCD(t, fmt.Sprintf("GF(%d) quotient degrees %v stop=%d", q, degs, stop), r, a, b, stop)
			}
		}
	}

	// The decoder's shape: G0 over consecutive points, G1 through a word
	// with a block of errors, Gao's stop.
	r := NewRing(ff.Must(q61))
	const e, d, nerr = 300, 199, 50
	ps := r.NewPointSet(consecutive(e))
	word := ps.Eval(randPoly(rng, r.f, d))
	for i := 60; i < 60+nerr; i++ {
		word[i] = r.f.Add(word[i], 1)
	}
	diffPartialXGCD(t, "Gao stop", r, ps.Product(), ps.Interpolate(word), (e+d+1)/2)
}

func FuzzPartialXGCD(f *testing.F) {
	f.Add(uint64(97), []byte{1, 0, 0, 5, 0, 0, 0, 1}, []byte{0, 3, 0, 1}, uint8(2))
	f.Add(uint64(257), []byte{7, 7, 7, 7, 7, 7}, []byte{7, 7, 7, 7, 7, 7}, uint8(0))
	f.Add(uint64(97), []byte{0, 0, 0, 0, 1}, []byte{}, uint8(1))
	f.Add(uint64(12289), []byte{9, 200, 3}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(4))
	f.Fuzz(func(t *testing.T, q uint64, ab, bb []byte, stop uint8) {
		if q < 3 || q > 1<<20 || !ff.IsPrime(q) || len(ab) > 200 || len(bb) > 200 {
			t.Skip()
		}
		r := NewRing(ff.Must(q))
		a, b := make([]uint64, len(ab)), make([]uint64, len(bb))
		for i, c := range ab {
			a[i] = uint64(c) % q
		}
		for i, c := range bb {
			b[i] = uint64(c) % q
		}
		if Degree(a) < 0 {
			t.Skip() // (0, b): the reference divides by zero
		}
		diffPartialXGCD(t, fmt.Sprintf("GF(%d) a=%v b=%v stop=%d", q, a, b, stop), r, a, b, int(stop))
	})
}

// referenceInterpolate is Σ_i values[i]/m'(x_i) · m/(x - x_i) summed up
// the tree with Ring.Mul and Ring.Add alone: combineUp before the spectra.
func referenceInterpolate(ps *PointSet, values []uint64) []uint64 {
	r := ps.r
	var up func(k, off, span int) []uint64
	up = func(k, off, span int) []uint64 {
		if off >= len(ps.points) {
			return nil
		}
		if span == 1 {
			return Trim([]uint64{r.f.Mul(r.f.ReduceU(values[off]), ps.invW[off])})
		}
		left, right := up(2*k, off, span/2), up(2*k+1, off+span/2, span/2)
		return r.Add(r.Mul(left, ps.node[2*k+1]), r.Mul(right, ps.node[2*k]))
	}
	return up(1, 0, ps.size)
}

// TestPointSetSpectra holds the set's cached spectra to the forms that
// use none: the tree's nodes to products of linear factors, Interpolate
// to referenceInterpolate and the one-shot Ring.Interpolate, Eval to
// Horner, and Quotient to Mul and DivMod — on both sides of every tree
// size, and from eight goroutines on one set (run under -race in CI).
func TestPointSetSpectra(t *testing.T) {
	q61, _, err := ff.NTTPrime(1<<61, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRing(ff.Must(q61))
	rng := rand.New(rand.NewSource(2424))
	for _, n := range []int{63, 64, 65, 255, 256, 257, 1535, 2048, 2049} {
		points := consecutive(n)
		ps := r.NewPointSet(points)
		if n >= nttThreshold && (ps.spec[2] == nil || ps.mHat == nil) {
			t.Fatalf("n=%d: the set caches no spectra", n)
		}
		m := []uint64{1}
		for _, x := range points {
			m = r.mulNaive(m, []uint64{r.f.Neg(x), 1})
		}
		if !Equal(ps.Product(), m) {
			t.Fatalf("n=%d: the root is not the product of the linear factors", n)
		}
		for k := 1; k < ps.size; k++ {
			if want := Trim(r.mulNaive(ps.node[2*k], ps.node[2*k+1])); !Equal(ps.node[k], want) {
				t.Fatalf("n=%d: node %d is not the product of its children", n, k)
			}
		}

		p := randPoly(rng, r.f, n-1)
		values := ps.Eval(p)
		for i, x := range points {
			if i%7 == 0 && values[i] != r.Eval(p, x) {
				t.Fatalf("n=%d: Eval[%d] differs from Horner", n, i)
			}
		}
		// Gao's last step on a word with k errors in a block.
		k := min(n/8, 100)
		d := n - 2*k - 1
		word := ps.Eval(p[:d+1])
		for i := n / 3; i < n/3+k; i++ {
			word[i] = r.f.Add(word[i], 1+rng.Uint64()%(r.f.Q-1))
		}
		g1 := referenceInterpolate(ps, word)
		u, v := r.PartialXGCD(ps.Product(), g1, (n+d+1)/2)
		wantQuo, rem := r.DivMod(r.Add(r.Mul(u, ps.Product()), r.Mul(v, g1)), v)
		if len(rem) != 0 || !Equal(wantQuo, p[:d+1]) {
			t.Fatalf("n=%d: the reference quotient is not the message", n)
		}
		if ps.quotientSpectral(u, v) == nil {
			t.Fatalf("n=%d: the locator vanishes at a transform point: Quotient would not take the transform path", n)
		}
		// Past the radius the locator is no divisor of the product and the
		// division leaves a remainder.
		for i := 0; i < k+2; i++ {
			word[i] = r.f.Add(word[i], 1+rng.Uint64()%(r.f.Q-1))
		}
		g1Far := referenceInterpolate(ps, word)
		uFar, vFar := r.PartialXGCD(ps.Product(), g1Far, (n+d+1)/2)
		if _, rem := r.DivMod(r.Add(r.Mul(uFar, ps.Product()), r.Mul(vFar, g1Far)), vFar); len(rem) == 0 {
			t.Fatalf("n=%d: %d errors past the radius divided exactly", n, k+2)
		}

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := ps.Interpolate(values); !Equal(got, p) || !Equal(got, referenceInterpolate(ps, values)) {
					t.Errorf("n=%d: PointSet.Interpolate differs from the reference", n)
				}
				if got := ps.Interpolate(word); !Equal(got, g1Far) {
					t.Errorf("n=%d: PointSet.Interpolate of a word with errors differs from the reference", n)
				}
				if got := r.Interpolate(points, values); !Equal(got, p) {
					t.Errorf("n=%d: Ring.Interpolate differs", n)
				}
				if got, ok := ps.Quotient(u, v, g1, d); !ok || !Equal(got, wantQuo) {
					t.Errorf("n=%d: Quotient ok=%v, degree %d, want the message", n, ok, Degree(got))
				}
				if _, ok := ps.Quotient(u, v, g1, d-1); ok {
					t.Errorf("n=%d: Quotient accepted a degree bound below the quotient's degree", n)
				}
				if _, ok := ps.Quotient(uFar, vFar, g1Far, d); ok {
					t.Errorf("n=%d: Quotient accepted a division with remainder", n)
				}
			}()
		}
		wg.Wait()
	}

	// GF(257), 100 points: the transform points of a 128-leaf tree are the
	// odd 256th roots of unity, which are the field's generators. A locator
	// with a root at the generator 3 has no pointwise inverse there, and
	// Quotient must reach the same polynomial through Mul and DivMod.
	r = NewRing(ff.Must(257))
	ps := r.NewPointSet(consecutive(100))
	msg := randPoly(rng, r.f, 79)
	for _, at := range [][]int{{3}, {3, 5, 6, 7}, {0, 1, 2, 4}} {
		word := ps.Eval(msg)
		for _, i := range at {
			word[i] = r.f.Add(word[i], 1)
		}
		g1 := ps.Interpolate(word)
		u, v := r.PartialXGCD(ps.Product(), g1, (100+79+1)/2)
		if fallback := ps.quotientSpectral(u, v) == nil; fallback != (at[0] == 3) {
			t.Fatalf("GF(257) errors at %v: transform path refused = %v", at, fallback)
		}
		if got, ok := ps.Quotient(u, v, g1, 79); !ok || !Equal(got, msg) {
			t.Fatalf("GF(257) errors at %v: Quotient ok=%v, want the message", at, ok)
		}
	}
}
