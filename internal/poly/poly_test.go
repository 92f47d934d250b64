package poly

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"camelot/internal/ff"
)

// testRing returns a ring over an NTT-friendly prime (large two-adicity).
func testRing(t testing.TB) *Ring {
	t.Helper()
	q, _, err := ff.NTTPrime(1<<20, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return NewRing(ff.Must(q))
}

// plainRing returns a ring over a prime with tiny two-adicity, forcing the
// Karatsuba path even for large products.
func plainRing(t testing.TB) *Ring {
	t.Helper()
	// 1000003 - 1 = 2 * 3 * 166667: two-adicity 1, no NTT.
	return NewRing(ff.Must(1000003))
}

func randPoly(rng *rand.Rand, f ff.Field, deg int) []uint64 {
	p := make([]uint64, deg+1)
	for i := range p {
		p[i] = rng.Uint64() % f.Q
	}
	p[deg] = 1 + rng.Uint64()%(f.Q-1) // ensure exact degree
	return p
}

func TestDegreeAndTrim(t *testing.T) {
	tests := []struct {
		name string
		in   []uint64
		deg  int
	}{
		{"nil", nil, -1},
		{"zeros", []uint64{0, 0, 0}, -1},
		{"constant", []uint64{5}, 0},
		{"padded", []uint64{1, 2, 0, 0}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Degree(tt.in); got != tt.deg {
				t.Errorf("Degree = %d, want %d", got, tt.deg)
			}
			if got := Trim(tt.in); Degree(got) != tt.deg || (len(got) > 0 && got[len(got)-1] == 0) {
				t.Errorf("Trim not canonical: %v", got)
			}
		})
	}
}

func TestMulZero(t *testing.T) {
	r := testRing(t)
	if got := r.Mul(nil, []uint64{1, 2, 3}); len(got) != 0 {
		t.Fatalf("0 * p = %v, want zero", got)
	}
}

func TestMulPropertyCommutative(t *testing.T) {
	r := plainRing(t)
	rng := rand.New(rand.NewSource(7))
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	prop := func(da, db uint8) bool {
		a := randPoly(rng, r.f, int(da%60)+1)
		b := randPoly(rng, r.f, int(db%60)+1)
		return Equal(r.Mul(a, b), r.Mul(b, a))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestGCD runs the one Euclidean loop to its end (stop degree 0): the
// cofactors of the zero remainder are a/gcd and b/gcd up to a unit, so
// a/v is the greatest common divisor.
func TestGCD(t *testing.T) {
	r := testRing(t)
	rng := rand.New(rand.NewSource(11))
	g := randPoly(rng, r.f, 7)
	a := r.Mul(g, randPoly(rng, r.f, 13))
	b := r.Mul(g, randPoly(rng, r.f, 9))
	u, v := r.PartialXGCD(a, b, 0)
	if rem := r.Add(r.Mul(u, a), r.Mul(v, b)); len(rem) != 0 {
		t.Fatalf("u*a + v*b has degree %d, want the zero remainder", Degree(rem))
	}
	got, rem := r.DivMod(a, v)
	if len(rem) != 0 {
		t.Fatal("the last cofactor of b does not divide a")
	}
	// gcd must divide both and be divisible by g (up to possibly larger
	// common factors; check divisibility both ways where it must hold).
	if _, rem := r.DivMod(b, got); len(rem) != 0 {
		t.Fatal("gcd does not divide b")
	}
	if _, rem := r.DivMod(got, g); len(rem) != 0 {
		t.Fatal("g does not divide gcd")
	}
}

func TestInterpolateConstantAndLinear(t *testing.T) {
	r := testRing(t)
	got := r.Interpolate([]uint64{5}, []uint64{42})
	if !Equal(got, []uint64{42}) {
		t.Fatalf("constant interpolation = %v", got)
	}
	// Through (0, 1) and (1, 3): p(x) = 1 + 2x.
	got = r.Interpolate([]uint64{0, 1}, []uint64{1, 3})
	if !Equal(got, []uint64{1, 2}) {
		t.Fatalf("linear interpolation = %v", got)
	}
}

func TestPointSetProduct(t *testing.T) {
	r := testRing(t)
	roots := []uint64{1, 2, 3}
	// (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
	got := r.NewPointSet(roots).Product()
	want := []uint64{r.f.Reduce(-6), 11, r.f.Reduce(-6), 1}
	if !Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for _, x := range roots {
		if r.Eval(got, x) != 0 {
			t.Fatalf("root %d not a root", x)
		}
	}
}

// TestFootprintCountsEveryArray holds PointSet.Footprint, which
// GeometryCache budgets codes by, to every slice the set keeps: each
// []uint64 field's words, and each [][]uint64 field's headers and words,
// found by reflection so that a new cached array must be counted.
func TestFootprintCountsEveryArray(t *testing.T) {
	for _, r := range []*Ring{testRing(t), plainRing(t)} {
		for _, n := range []int{1, 5, 64, 300} {
			ps := r.NewPointSet(consecutive(n))
			words, headers, arrays := 0, 0, 0
			v := reflect.ValueOf(ps).Elem()
			for i := range v.NumField() {
				switch fv := v.Field(i); fv.Type().String() {
				case "[]uint64":
					words, arrays = words+fv.Len(), arrays+1
				case "[][]uint64":
					headers, arrays = headers+fv.Len(), arrays+1
					for j := range fv.Len() {
						words += fv.Index(j).Len()
					}
				}
			}
			if arrays < 6 || ps.Footprint() != 8*words+24*headers {
				t.Fatalf("q=%d n=%d: Footprint %d over %d arrays, the set holds %d words and %d headers",
					r.f.Q, n, ps.Footprint(), arrays, words, headers)
			}
		}
	}
}

func TestDerivative(t *testing.T) {
	r := testRing(t)
	// d/dx (1 + 2x + 3x^2) = 2 + 6x
	got := r.Derivative([]uint64{1, 2, 3})
	if !Equal(got, []uint64{2, 6}) {
		t.Fatalf("got %v", got)
	}
	if got := r.Derivative([]uint64{7}); len(got) != 0 {
		t.Fatalf("derivative of constant = %v", got)
	}
}

func BenchmarkMulNTT4096(b *testing.B) {
	r := testRing(b)
	rng := rand.New(rand.NewSource(1))
	p := randPoly(rng, r.f, 2047)
	q := randPoly(rng, r.f, 2047)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Mul(p, q)
	}
}

func BenchmarkEvalMany2048(b *testing.B) {
	r := testRing(b)
	rng := rand.New(rand.NewSource(1))
	p := randPoly(rng, r.f, 2047)
	points := make([]uint64, 2048)
	for i := range points {
		points[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.EvalMany(p, points)
	}
}

func BenchmarkInterpolate2048(b *testing.B) {
	r := testRing(b)
	rng := rand.New(rand.NewSource(1))
	p := randPoly(rng, r.f, 2047)
	points := make([]uint64, 2048)
	for i := range points {
		points[i] = uint64(i)
	}
	values := r.EvalMany(p, points)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Interpolate(points, values)
	}
}
