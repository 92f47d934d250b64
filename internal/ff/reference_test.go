package ff

import "math/bits"

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
