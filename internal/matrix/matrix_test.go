package matrix

import (
	"math/rand"
	"testing"

	"camelot/internal/ff"
)

var testField = ff.Must(1000003)

// mulReference is a textbook triple loop with per-step reduction.
func mulReference(a, b *Matrix) *Matrix {
	out := New(a.F, a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			acc := uint64(0)
			for k := 0; k < a.C; k++ {
				acc = a.F.Add(acc, a.F.Mul(a.At(i, k), b.At(k, j)))
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// mulPrimes are the widths the kernel is checked at: the small test
// field's, and the Mersenne prime 2^61-1 in the [2^61, 2^62) band every
// proof prime comes from (crt.FloorModulus).
var mulPrimes = []uint64{testField.Q, 1<<61 - 1}

func TestMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {7, 7, 7}, {16, 5, 9}, {20, 20, 20}, {33, 33, 33}, {64, 64, 64},
	}
	for _, q := range mulPrimes {
		f := ff.Must(q)
		for _, sh := range shapes {
			a := Rand(f, sh.m, sh.k, rng)
			b := Rand(f, sh.k, sh.n, rng)
			if got, want := a.Mul(b), mulReference(a, b); !got.Equal(want) {
				t.Fatalf("q=%d: Mul mismatch at %dx%dx%d", f.Q, sh.m, sh.k, sh.n)
			}
		}
	}
}

func TestStrassenMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, q := range mulPrimes {
		f := ff.Must(q)
		for _, n := range []int{129, 150, 200} {
			a := Rand(f, n, n, rng)
			b := Rand(f, n, n, rng)
			got := a.Mul(b)         // Strassen path (n >= cutoff)
			want := a.mulClassic(b) // direct kernel
			if !got.Equal(want) {
				t.Fatalf("q=%d: Strassen mismatch at n=%d", f.Q, n)
			}
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for incompatible shapes")
		}
	}()
	a := New(testField, 2, 3)
	b := New(testField, 2, 3)
	a.Mul(b)
}

func TestAddSubHadamard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Rand(testField, 8, 8, rng)
	b := Rand(testField, 8, 8, rng)
	sum := a.Add(b)
	if !sum.Sub(b).Equal(a) {
		t.Fatal("(a+b)-b != a")
	}
	h := a.Hadamard(b)
	for i := range h.A {
		if h.A[i] != testField.Mul(a.A[i], b.A[i]) {
			t.Fatal("hadamard entry mismatch")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Rand(testField, 5, 9, rng)
	if !a.Transpose().Transpose().Equal(a) {
		t.Fatal("transpose not an involution")
	}
	if a.Transpose().R != 9 || a.Transpose().C != 5 {
		t.Fatal("transpose shape wrong")
	}
}

func TestDotAllAndTrace(t *testing.T) {
	a, err := FromSlice(testField, 2, 2, []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromSlice(testField, 2, 2, []uint64{5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.DotAll(b); got != 5+12+21+32 {
		t.Fatalf("DotAll = %d, want 70", got)
	}
	if got := a.Trace(); got != 5 {
		t.Fatalf("Trace = %d, want 5", got)
	}
}

func TestDotAllMatchesMulTrace(t *testing.T) {
	// Σ_ij (A·B)_ij C_ij == DotAll(A·B, C): sanity glue used by the
	// (6,2)-form code paths.
	rng := rand.New(rand.NewSource(7))
	a := Rand(testField, 12, 12, rng)
	b := Rand(testField, 12, 12, rng)
	c := Rand(testField, 12, 12, rng)
	ab := a.Mul(b)
	want := uint64(0)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			want = testField.Add(want, testField.Mul(ab.At(i, j), c.At(i, j)))
		}
	}
	if got := ab.DotAll(c); got != want {
		t.Fatal("DotAll mismatch")
	}
}

func TestFromSliceValidation(t *testing.T) {
	if _, err := FromSlice(testField, 2, 2, []uint64{1, 2, 3}); err == nil {
		t.Fatal("want error for wrong data length")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(testField, 2, 2)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 0 {
		t.Fatal("clone shares storage")
	}
}

func BenchmarkMulClassic64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Rand(testField, 64, 64, rng)
	y := Rand(testField, 64, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkMulStrassen256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Rand(testField, 256, 256, rng)
	y := Rand(testField, 256, 256, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}
