package poly

// The slow forms the fast ones are held to: the quadratic Euclidean loop
// on whole polynomials that PartialXGCD was until it moved to the leading
// coefficients, long division one coefficient at a time, and the
// transform-free tree walks the cached spectra replace; then one table,
// polyRows, that holds every fast path of the package to them, to
// schoolbook products, to Horner and to the pre-plan transform refNTT, at
// parallelism 1 and 4. A new fast path lands as one row.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"camelot/internal/ff"
	"camelot/internal/par"
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

// refDivMod is long division by Field ops, one quotient coefficient and
// one row of b at a time.
func refDivMod(r *Ring, a, b []uint64) (q, rem []uint64) {
	rem, b = slices.Clone(Trim(a)), Trim(b)
	q, lead := make([]uint64, max(0, len(rem)-len(b)+1)), r.f.Inv(b[len(b)-1])
	for i := len(q) - 1; i >= 0; i-- {
		q[i] = r.f.Mul(rem[i+len(b)-1], lead)
		for j, bj := range b {
			rem[i+j] = r.f.Sub(rem[i+j], r.f.Mul(q[i], bj))
		}
	}
	return Trim(q), Trim(rem[:min(len(rem), len(b)-1)])
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

// polyRow is one fast path against its reference: cases draws operand
// tuples meeting the path's precondition at size n over r, and fast and
// ref map a tuple to the polynomials or vectors the row compares.
type polyRow struct {
	name, test string // test runs the row; "" is TestPolyMatchesReference
	moduli     []uint64
	sizes      []int
	cases      func(rng *rand.Rand, r *Ring, n int) [][][]uint64
	fast, ref  func(r *Ring, v [][]uint64) [][]uint64
	serial     bool // no call forks at these sizes: parallelism 1 only
}

func nttPrime(min uint64, order int) uint64 {
	q, _, err := ff.NTTPrime(min, order)
	if err != nil {
		panic(err)
	}
	return q
}

var (
	// NTT primes over the modulus range, one just under 2^62; 1000003 has
	// two-adicity 1, so its products take Karatsuba at every size.
	qNTT, q45, q61, qPlain = nttPrime(1<<20, 1<<16), nttPrime(1<<45, 1<<13), nttPrime(1<<61, 1<<13), uint64(1000003)

	// pair is two polynomials of degrees n and m(n).
	pair = func(m func(n int) int) func(*rand.Rand, *Ring, int) [][][]uint64 {
		return func(rng *rand.Rand, r *Ring, n int) [][][]uint64 {
			return [][][]uint64{{randPoly(rng, r.f, n), randPoly(rng, r.f, max(0, m(n)))}}
		}
	}
	naive  = func(r *Ring, v [][]uint64) [][]uint64 { return [][]uint64{Trim(r.mulNaive(v[0], v[1]))} }
	mulNTT = func(r *Ring, v [][]uint64) [][]uint64 {
		return [][]uint64{Trim(r.mulNTT(v[0], v[1], nttSize(len(v[0])+len(v[1])-1)))}
	}

	// lazyNTT is transformLazy forward and inverse with the plan's
	// twiddles; an entry outside the lazy range [0, 4q) comes out as a
	// value no reference holds.
	lazyNTT = func(r *Ring, v [][]uint64) [][]uint64 {
		p := r.plan(len(v[0]))
		out := [][]uint64{slices.Clone(v[0]), slices.Clone(v[0])}
		for i, tw := range [][]twiddle{p.fwd, p.inv} {
			transformLazy(r.f, out[i], p, tw)
			for j, x := range out[i] {
				if out[i][j] = x % r.f.Q; x >= 4*r.f.Q {
					out[i][j] = ^uint64(0)
				}
			}
		}
		return out
	}
	refTransforms = func(r *Ring, v [][]uint64) [][]uint64 {
		w := r.rootOfOrder(len(v[0]))
		out := [][]uint64{slices.Clone(v[0]), slices.Clone(v[0])}
		refNTT(out[0], w, r.f.Q)
		refNTT(out[1], r.f.Inv(w), r.f.Q)
		return out
	}
	vector = func(rng *rand.Rand, r *Ring, n int) [][][]uint64 {
		return [][][]uint64{{randPoly(rng, r.f, nttSize(max(n, 2))-1)}}
	}

	// evalCases are polynomials of degree -1 (zero), 0, n/2, n-1 and n+70
	// at the n spread points i·7919 mod q + 1, with their values.
	evalCases = func(rng *rand.Rand, r *Ring, n int) [][][]uint64 {
		points := make([]uint64, n)
		for i := range points {
			points[i] = uint64(i)*7919%r.f.Q + 1
		}
		var cases [][][]uint64
		for _, d := range []int{-1, 0, n / 2, n - 1, n + 70} {
			cases = append(cases, withValues(r, randPoly(rng, r.f, max(d, 0))[:d+1], points))
		}
		return cases
	}
	// gridCase is the protocol's grid 0..n-1 with one polynomial of degree
	// n-1 and its values.
	gridCase = func(rng *rand.Rand, r *Ring, n int) [][][]uint64 {
		return [][][]uint64{withValues(r, randPoly(rng, r.f, n-1), consecutive(n))}
	}
	// byHorner is the values, and p itself for each interpolation a
	// round trip can recover (deg p < n).
	byHorner = func(k int) func(*Ring, [][]uint64) [][]uint64 {
		return func(_ *Ring, v [][]uint64) [][]uint64 {
			if len(v[0]) > len(v[1]) {
				return v[2:3]
			}
			return append([][]uint64{v[2]}, slices.Repeat([][]uint64{v[0]}, k)...)
		}
	}
	pointSet = func(r *Ring, v [][]uint64) [][]uint64 {
		ps := r.NewPointSet(v[1])
		if len(v[0]) > len(v[1]) {
			return [][]uint64{ps.Eval(v[0])}
		}
		return [][]uint64{ps.Eval(v[0]), ps.Interpolate(v[2])}
	}

	divMod       = func(r *Ring, v [][]uint64) [][]uint64 { q, rem := r.DivMod(v[0], v[1]); return [][]uint64{q, rem} }
	longDivision = func(r *Ring, v [][]uint64) [][]uint64 { q, rem := refDivMod(r, v[0], v[1]); return [][]uint64{q, rem} }
	euclid       = func(r *Ring, v [][]uint64) [][]uint64 {
		u, w := r.PartialXGCD(v[0], v[1], int(v[2][0]))
		return [][]uint64{w, r.Add(r.mulNaive(u, v[0]), r.mulNaive(w, v[1]))}
	}
	refEuclid = func(r *Ring, v [][]uint64) [][]uint64 {
		g, w := referencePartialXGCD(r, v[0], v[1], int(v[2][0]))
		return [][]uint64{w, g}
	}
)

// euclidCases is trial n of the Euclidean rows: random (a, b), sparse
// over the small fields so that leading coefficients cancel, in both
// orders, at stops around their degrees; with a common factor; b | a;
// and at trial 0, b zero or constant, sequences built bottom up with
// quotients of degree ≥ 2, which the random rows over the 61-bit prime
// all but never reach, and there the decoder's shape: G0 over
// consecutive points, G1 through a word with a block of errors, Gao's
// stop.
func euclidCases(rng *rand.Rand, r *Ring, n int) [][][]uint64 {
	gen := randPoly
	if r.f.Q < 1<<20 {
		gen = sparsePoly
	}
	var cases [][][]uint64
	add := func(a, b []uint64, stops ...int) {
		for _, stop := range stops {
			cases = append(cases, [][]uint64{a, b, {uint64(stop)}})
		}
	}
	da := 1 + rng.Intn(90)
	a, b := gen(rng, r.f, da), gen(rng, r.f, rng.Intn(da+1))
	stops := []int{0, 1, rng.Intn(da + 1), Degree(b), Degree(b) + 1, da, da + 3}
	add(a, b, stops...)
	add(b, a, stops...)
	c := gen(rng, r.f, 1+rng.Intn(20))
	add(r.Mul(a, c), r.Mul(b, c), 0, 1, Degree(c), Degree(c)+1)
	add(r.Mul(a, c), c, 0, 1, Degree(c), Degree(c)+1)
	if n == 0 {
		a := gen(rng, r.f, 40)
		add(a, nil, 0, 1, 40)
		add(a, []uint64{5}, 0, 1, 40)
		for _, degs := range [][]int{{2, 2, 2}, {1, 2, 1, 3, 1, 5, 2}, {0, 3, 1, 2}, {6, 1, 4}, {1, 1, 1, 9}} {
			a, b := withQuotients(rng, r, degs)
			for stop := 0; stop <= Degree(a)+1; stop++ {
				add(a, b, stop)
			}
		}
	}
	if n == 0 && r.f.Q > 1<<20 {
		const e, d, nerr = 300, 199, 50
		ps := r.NewPointSet(consecutive(e))
		word := ps.Eval(randPoly(rng, r.f, d))
		for i := 60; i < 60+nerr; i++ {
			word[i] = r.f.Add(word[i], 1)
		}
		add(ps.Product(), ps.Interpolate(word), (e+d+1)/2)
	}
	return cases
}

var polyRows = []polyRow{
	{name: "transformLazy", test: "TestTransformLazyMatchesReference", moduli: []uint64{qNTT, q61},
		sizes: []int{2, 4, 8, 64, 512, 4096, 8192}, cases: vector, fast: lazyNTT, ref: refTransforms},
	{name: "transformLazy/8192", test: "TestTransformLazyRangeInvariant", moduli: []uint64{qNTT},
		sizes: []int{8192}, cases: vector, fast: lazyNTT, ref: refTransforms},
	{name: "mulNTT/reference transform", test: "TestMulNTTMatchesReferenceTransform", moduli: []uint64{qNTT, q45, q61},
		sizes: []int{130, 512, 2000}, cases: pair(func(n int) int { return n - 7 }),
		fast: mulNTT,
		ref: func(r *Ring, v [][]uint64) [][]uint64 {
			n := nttSize(len(v[0]) + len(v[1]) - 1)
			return [][]uint64{Trim(refMulNTT(v[0], v[1], n, r.rootOfOrder(n), r.f.Q))}
		}},
	{name: "mulNTT", test: "TestMulNTTMatchesNaive", moduli: []uint64{qNTT, q45, q61},
		sizes: []int{0, 1, 2, 128, 699}, cases: pair(func(n int) int { return n + 5 }), fast: mulNTT, ref: naive},
	{name: "mulNTT/700x900", test: "TestNTTRoundTripProperty", moduli: []uint64{qNTT},
		sizes: []int{700}, cases: pair(func(n int) int { return n + 200 }), fast: mulNTT, ref: naive},
	{name: "Mul", test: "TestMulAgainstNaive", moduli: []uint64{qNTT, qPlain},
		sizes: []int{1, 3, 31, 100, 300, 512, 1000}, ref: naive,
		cases: func(rng *rand.Rand, r *Ring, n int) [][][]uint64 {
			return [][][]uint64{{randPoly(rng, r.f, n), randPoly(rng, r.f, n*7/9)}, {randPoly(rng, r.f, n), randPoly(rng, r.f, 5)}}
		},
		fast: func(r *Ring, v [][]uint64) [][]uint64 { return [][]uint64{r.Mul(v[0], v[1])} }},
	{name: "Mul/parallel", test: "TestMulParallelMatchesSerial", moduli: []uint64{qNTT}, sizes: []int{2400}, ref: naive,
		cases: pair(func(n int) int { return n - 400 }),
		fast:  func(r *Ring, v [][]uint64) [][]uint64 { return [][]uint64{r.Mul(v[0], v[1])} }},
	{name: "EvalMany", test: "TestEvalManyMatchesHorner", moduli: []uint64{qNTT, qPlain},
		sizes: []int{1, 2, 63, 64, 65, 300, 513}, cases: evalCases, ref: byHorner(0),
		fast: func(r *Ring, v [][]uint64) [][]uint64 { return [][]uint64{r.EvalMany(v[0], v[1])} }},
	{name: "EvalEach", moduli: []uint64{qNTT, qPlain, 97}, sizes: []int{1, 2, 63, 64, 65, 300}, cases: evalCases, ref: byHorner(0),
		fast: func(r *Ring, v [][]uint64) [][]uint64 { return [][]uint64{r.EvalEach(v[0], v[1])} }},
	{name: "PointSet", test: "TestPointSetMatchesOneShot", moduli: []uint64{qNTT, qPlain},
		sizes: []int{1, 2, 63, 64, 65, 128, 129, 300, 513}, cases: evalCases, fast: pointSet, ref: byHorner(1)},
	// One set walked by four goroutines at once, each walk only reading.
	{name: "PointSet/shared", test: "TestEvalManyInterpolateParallelMatchesSerial", moduli: []uint64{qNTT},
		sizes: []int{2048}, cases: gridCase, ref: byHorner(4),
		fast: func(r *Ring, v [][]uint64) [][]uint64 {
			ps := r.NewPointSet(v[1])
			out := make([][]uint64, 5)
			var wg sync.WaitGroup
			for g := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out[1+g] = ps.Interpolate(ps.Eval(v[0]))
				}()
			}
			wg.Wait()
			out[0] = r.EvalMany(v[0], v[1])
			return out
		}},
	{name: "Interpolate", test: "TestInterpolateRoundTrip", moduli: []uint64{qNTT, qPlain},
		sizes: []int{1, 2, 17, 64, 65, 200, 513}, cases: gridCase, ref: byHorner(1),
		fast: func(r *Ring, v [][]uint64) [][]uint64 {
			return [][]uint64{r.EvalMany(v[0], v[1]), r.Interpolate(v[1], v[2])}
		}},
	{name: "DivMod", test: "TestDivMod", moduli: []uint64{qNTT, 97, q61}, sizes: []int{0, 1, 5, 50, 200},
		cases: func(rng *rand.Rand, r *Ring, n int) [][][]uint64 {
			b := randPoly(rng, r.f, 1+rng.Intn(50))
			return [][][]uint64{{randPoly(rng, r.f, n), b}, {b, randPoly(rng, r.f, n)}, {sparsePoly(rng, r.f, n+60), b}}
		},
		fast: divMod, ref: longDivision},
	{name: "DivMod/smaller dividend", test: "TestDivModSmallerDividend", moduli: []uint64{qNTT}, sizes: []int{0, 1, 2},
		cases: pair(func(n int) int { return n + 2 }), fast: divMod, ref: longDivision},
	{name: "PartialXGCD", test: "TestPartialXGCDMatchesReference", moduli: []uint64{97, 257, q61},
		sizes: seq(150), cases: euclidCases, fast: euclid, ref: refEuclid, serial: true},
	{name: "PartialXGCD/2^20", test: "TestPartialXGCDInvariant", moduli: []uint64{qNTT},
		sizes: seq(20), cases: euclidCases, fast: euclid, ref: refEuclid, serial: true},
}

// withValues is the case (p, points, p's values there by Horner).
func withValues(r *Ring, p, points []uint64) [][]uint64 {
	values := make([]uint64, len(points))
	for i, x := range points {
		values[i] = r.f.Horner(p, x)
	}
	return [][]uint64{p, points, values}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// runPoly runs the rows whose test is the calling one: every case at
// every modulus and size of the row, the fast path at parallelism 1
// and 4 against one reference result.
func runPoly(t *testing.T) {
	ran := false
	for _, row := range polyRows {
		if row.test != strings.TrimPrefix(t.Name(), "TestPolyMatchesReference") {
			continue
		}
		ran = true
		t.Run(row.name, func(t *testing.T) {
			for _, q := range row.moduli {
				r, rng := NewRing(ff.Must(q)), rand.New(rand.NewSource(int64(q)))
				for _, n := range row.sizes {
					row.check(t, r, row.cases(rng, r, n), fmt.Sprintf("n=%d", n))
				}
			}
		})
	}
	if !ran {
		t.Fatalf("no row of polyRows names %s", t.Name())
	}
}

// check runs the fast path on every case at parallelism 1 and 4.
func (row polyRow) check(t *testing.T, r *Ring, cases [][][]uint64, what string) {
	t.Helper()
	workers := []int{1, 4}
	if row.serial {
		workers = workers[:1]
	}
	for c, v := range cases {
		want := row.ref(r, v)
		for _, workers := range workers {
			restore := par.SetParallelism(workers)
			got := row.fast(r, v)
			restore()
			if !slices.EqualFunc(got, want, Equal) {
				i := 0
				for i < min(len(got), len(want)) && Equal(got[i], want[i]) {
					i++
				}
				t.Fatalf("q=%d %s case %d, parallelism %d: %s result %d of %d differs from the reference", r.f.Q, what, c, workers, row.name, i, len(want))
			}
		}
	}
}

// TestPolyMatchesReference runs the rows no test of their own runs. A row's
// test names one of the functions below; the fuzz seeds run every row
// whatever its test.
func TestPolyMatchesReference(t *testing.T) { runPoly(t) }

// The rows run under the names of the tests they replaced.
func TestTransformLazyMatchesReference(t *testing.T)            { runPoly(t) }
func TestTransformLazyRangeInvariant(t *testing.T)              { runPoly(t) }
func TestMulNTTMatchesReferenceTransform(t *testing.T)          { runPoly(t) }
func TestMulNTTMatchesNaive(t *testing.T)                       { runPoly(t) }
func TestMulAgainstNaive(t *testing.T)                          { runPoly(t) }
func TestMulParallelMatchesSerial(t *testing.T)                 { runPoly(t) }
func TestEvalManyMatchesHorner(t *testing.T)                    { runPoly(t) }
func TestPointSetMatchesOneShot(t *testing.T)                   { runPoly(t) }
func TestEvalManyInterpolateParallelMatchesSerial(t *testing.T) { runPoly(t) }
func TestInterpolateRoundTrip(t *testing.T)                     { runPoly(t) }
func TestDivMod(t *testing.T)                                   { runPoly(t) }
func TestDivModSmallerDividend(t *testing.T)                    { runPoly(t) }
func TestPartialXGCDMatchesReference(t *testing.T)              { runPoly(t) }
func TestPartialXGCDInvariant(t *testing.T)                     { runPoly(t) }
func TestNTTRoundTripProperty(t *testing.T)                     { runPoly(t) }

// FuzzPoly runs the table's cases at a fuzzer-chosen row, modulus of
// the row, generator seed and size.
func FuzzPoly(f *testing.F) { fuzzPoly(f, -1) }

// FuzzPartialXGCD fuzzes the Euclidean row alone.
func FuzzPartialXGCD(f *testing.F) {
	fuzzPoly(f, slices.IndexFunc(polyRows, func(r polyRow) bool { return r.name == "PartialXGCD" }))
}

func fuzzPoly(f *testing.F, only int) {
	for sel := range polyRows {
		if only < 0 || sel == only {
			for seed := range int64(4) {
				f.Add(uint8(sel), uint8(seed), seed, uint16(3+seed*40))
			}
		}
	}
	f.Fuzz(func(t *testing.T, sel, mod uint8, seed int64, size uint16) {
		row := polyRows[int(sel)%len(polyRows)]
		if only >= 0 {
			row = polyRows[only]
		}
		q := row.moduli[int(mod)%len(row.moduli)]
		n := 1 + int(size)%2048
		r := NewRing(ff.Must(q))
		row.check(t, r, row.cases(rand.New(rand.NewSource(seed)), r, n), fmt.Sprintf("seed %d n=%d", seed, n))
	})
}
