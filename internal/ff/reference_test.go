package ff

import (
	"bytes"
	"encoding/binary"
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

// FuzzMulMont holds MulMont to the division oracle: for any odd modulus
// in [3, MaxPrime] (MontOf needs q odd, not prime), a < 2q and b < q, the
// product is canonical and MulMont(a, b)·2^64 ≡ a·b (mod q). The first
// seed sits where REDC's precondition a·b < q·2^64 is tightest.
func FuzzMulMont(f *testing.F) {
	top := prevPrime(MaxPrime)
	f.Add(top, 2*top-1, top-1)
	f.Add(uint64(3), uint64(5), uint64(2))
	f.Add(uint64(MaxPrime), uint64(0), uint64(0))
	f.Add(uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, q, a, b uint64) {
		q = (3 + (q-3)%(MaxPrime-2)) | 1
		a, b = a%(2*q), b%q
		fl := newUnchecked(q)
		got := MulMont(a, b, q, MontOf(q))
		if got >= q || fl.mulDiv(got, fl.reduce128Div(1, 0)) != fl.mulDiv(a, b) {
			t.Fatalf("q=%d: MulMont(%d, %d) = %d, want a canonical a·b·2^-64 = %d·2^-64", q, a, b, got, fl.mulDiv(a, b))
		}
	})
}

// FuzzHorner holds Field.Horner, the verifier's side of paper eq. (2), to a
// Horner loop on the division oracle over the diffModuli sweep. Each
// 8-byte word w of data is the coefficient q−1−(w mod q), so zero bytes
// give the top coefficient everywhere; x is any 64-bit word.
func FuzzHorner(f *testing.F) {
	f.Add(make([]byte, 8*64), ^uint64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint64(0))
	f.Add(append(bytes.Repeat([]byte{0xff}, 14), 'X', '0'), uint64(1)<<62-51) // a lazy value above 2q
	f.Fuzz(func(t *testing.T, data []byte, x uint64) {
		for _, q := range diffModuli(t) {
			fl := Must(q)
			coeffs := make([]uint64, min(len(data)/8, 1<<12))
			want, xr := uint64(0), x%q
			for j := range coeffs {
				coeffs[j] = q - 1 - binary.LittleEndian.Uint64(data[8*j:])%q
			}
			for j := len(coeffs) - 1; j >= 0; j-- {
				want = (fl.mulDiv(want, xr) + coeffs[j]) % q
			}
			if got := fl.Horner(coeffs, x); got != want {
				t.Fatalf("q=%d x=%d, %d coefficients: Horner = %d, reference %d", q, x, len(coeffs), got, want)
			}
		}
	})
}
