package ff

import (
	"math/bits"
	"testing"
)

// reduce128Div is the pre-Barrett reduction: one hardware 128/64
// division. Kept as the reference implementation — differential and
// fuzz tests pin the reciprocal path against it bit for bit.
func (f Field) reduce128Div(hi, lo uint64) uint64 {
	_, rem := bits.Div64(hi, lo, f.Q)
	return rem
}

// mulDiv is Mul through the division reference path, for differential
// tests and benchmarks.
func (f Field) mulDiv(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return f.reduce128Div(hi, lo)
}

// FuzzMulShoup holds MulShoup to the division oracle: for any 64-bit x, a
// modulus in [2, MaxPrime] and w < q, the product is below 2q and
// congruent to x·w, with ShoupOf's companion.
func FuzzMulShoup(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(MaxPrime))
	f.Add(^uint64(0), uint64(MaxPrime-1), uint64(MaxPrime))
	f.Add(^uint64(0), ^uint64(0), uint64(0))
	f.Add(uint64(1)<<63, uint64(1), uint64(2))
	f.Add(uint64(12345), uint64(1048582), uint64(1048583))
	f.Fuzz(func(t *testing.T, x, w, q uint64) {
		q = 2 + q%(MaxPrime-1)
		w %= q
		got := MulShoup(x, w, ShoupOf(w, q), q)
		hi, lo := bits.Mul64(x, w)
		_, want := bits.Div64(hi, lo, q) // hi < w < q
		if got >= 2*q || got%q != want {
			t.Fatalf("q=%d: MulShoup(%d, %d) = %d, want %d mod q below 2q", q, x, w, got, want)
		}
	})
}
