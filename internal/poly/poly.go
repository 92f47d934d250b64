// Package poly implements dense univariate polynomial arithmetic over a
// prime field Z_q: the "fast arithmetic toolbox" of paper §2.2. It provides
// multiplication (naive, Karatsuba, and NTT when the modulus permits),
// division with remainder, the truncated extended Euclidean algorithm used
// by the Gao Reed–Solomon decoder, and subproduct-tree multipoint
// evaluation, interpolation and exact division against a cached point set.
//
// A polynomial is a coefficient slice c with c[j] the coefficient of x^j.
// The zero polynomial is the empty (or all-zero) slice. Operations treat
// inputs as immutable and return fresh slices.
package poly

import (
	"camelot/internal/ff"
)

// nttThreshold is the product size above which NTT multiplication is
// attempted; below it Karatsuba/naive win on constants.
const nttThreshold = 256

// karatsubaThreshold is the operand size below which naive multiplication
// is used inside the Karatsuba recursion.
const karatsubaThreshold = 32

// Ring provides polynomial arithmetic over a fixed prime field.
// Construct with NewRing. The zero value is unusable.
type Ring struct {
	f ff.Field
	// twoAdicity is the largest k with 2^k | q-1; it bounds NTT sizes.
	twoAdicity int
	// root is a primitive 2^twoAdicity-th root of unity, 0 if unavailable.
	root uint64
}

// NewRing returns a polynomial ring over Z_q. If q-1 has enough powers of
// two, multiplications transparently use the number-theoretic transform.
// The transform root is ff.Field.RootOfUnity's — a few exponentiations,
// no factoring of q-1 — so a ring is cheap to rebuild per prime per run.
func NewRing(f ff.Field) *Ring {
	r := &Ring{f: f}
	m := f.Q - 1
	for m%2 == 0 {
		m /= 2
		r.twoAdicity++
	}
	if r.twoAdicity >= 2 {
		r.root = f.RootOfUnity(r.twoAdicity)
	}
	return r
}

// canNTT reports whether the field has a primitive n-th root of unity for
// the power of two n, that is, whether a size-n transform exists.
func (r *Ring) canNTT(n int) bool { return r.root != 0 && n <= 1<<uint(r.twoAdicity) }

// Field returns the coefficient field.
func (r *Ring) Field() ff.Field { return r.f }

// Trim removes trailing zero coefficients, returning the canonical
// representation (possibly an empty slice for the zero polynomial).
func Trim(p []uint64) []uint64 {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func Degree(p []uint64) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// Equal reports whether a and b represent the same polynomial.
func Equal(a, b []uint64) bool {
	a, b = Trim(a), Trim(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Add returns a+b.
func (r *Ring) Add(a, b []uint64) []uint64 {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]uint64, len(a))
	copy(out, a)
	for i := range b {
		out[i] = r.f.Add(out[i], b[i])
	}
	return Trim(out)
}

// Sub returns a-b.
func (r *Ring) Sub(a, b []uint64) []uint64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]uint64, n)
	copy(out, a)
	for i := range b {
		out[i] = r.f.Sub(out[i], b[i])
	}
	return Trim(out)
}

// Mul returns a*b, dispatching on size: naive for tiny operands,
// Karatsuba in the mid range, NTT for large products when the modulus
// supports a big enough transform.
func (r *Ring) Mul(a, b []uint64) []uint64 {
	a, b = Trim(a), Trim(b)
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	if n := nttSize(outLen); outLen >= nttThreshold && r.canNTT(n) {
		return Trim(r.mulNTT(a, b, n))
	}
	if len(a) <= karatsubaThreshold || len(b) <= karatsubaThreshold {
		return Trim(r.mulNaive(a, b))
	}
	return Trim(r.mulKaratsuba(a, b))
}

// mulNaive is the schoolbook product, on the hoisted reduction kernel.
func (r *Ring) mulNaive(a, b []uint64) []uint64 {
	k := r.f.Kernel()
	out := make([]uint64, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		ais := k.Shift(ai)
		row := out[i : i+len(b)]
		for j, bj := range b {
			row[j] = r.f.Add(row[j], ff.MulKS(bj, ais, k))
		}
	}
	return out
}

// mulKaratsuba implements the classic three-multiplication recursion.
func (r *Ring) mulKaratsuba(a, b []uint64) []uint64 {
	if len(a) <= karatsubaThreshold || len(b) <= karatsubaThreshold {
		return r.mulNaive(a, b)
	}
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	m /= 2
	a0, a1 := splitAt(a, m), highAt(a, m)
	b0, b1 := splitAt(b, m), highAt(b, m)
	z0 := r.mulKaratsuba(a0, b0)
	z2 := []uint64(nil)
	if len(a1) > 0 && len(b1) > 0 {
		z2 = r.mulKaratsuba(a1, b1)
	}
	sa := r.Add(a0, a1)
	sb := r.Add(b0, b1)
	var z1 []uint64
	if len(sa) > 0 && len(sb) > 0 {
		z1 = r.mulKaratsuba(sa, sb)
	}
	z1 = r.Sub(r.Sub(z1, z0), z2)
	out := make([]uint64, len(a)+len(b)-1)
	addInto(r.f, out, z0, 0)
	addInto(r.f, out, z1, m)
	addInto(r.f, out, z2, 2*m)
	return out
}

func splitAt(p []uint64, m int) []uint64 {
	if len(p) <= m {
		return Trim(p)
	}
	return Trim(p[:m])
}

func highAt(p []uint64, m int) []uint64 {
	if len(p) <= m {
		return nil
	}
	return Trim(p[m:])
}

func addInto(f ff.Field, dst, src []uint64, off int) {
	for i, v := range src {
		dst[off+i] = f.Add(dst[off+i], v)
	}
}

// Eval evaluates p at x by Horner's rule.
func (r *Ring) Eval(p []uint64, x uint64) uint64 { return r.f.Horner(p, x) }

// Derivative returns p'.
func (r *Ring) Derivative(p []uint64) []uint64 {
	if len(p) <= 1 {
		return nil
	}
	out := make([]uint64, len(p)-1)
	for i := 1; i < len(p); i++ {
		out[i-1] = r.f.Mul(p[i], uint64(i)%r.f.Q)
	}
	return Trim(out)
}

// DivMod returns quotient and remainder of a / b. Panics if b is zero
// (a programming error in this codebase: divisors are always nonzero
// subproduct or Euclidean polynomials).
func (r *Ring) DivMod(a, b []uint64) (q, rem []uint64) {
	b = Trim(b)
	if len(b) == 0 {
		panic("poly: division by zero polynomial")
	}
	a = Trim(a)
	if len(a) < len(b) {
		return nil, a
	}
	rem = make([]uint64, len(a))
	copy(rem, a)
	q = make([]uint64, len(a)-len(b)+1)
	r.divInPlace(rem, b, q)
	return Trim(q), Trim(rem[:len(b)-1])
}

// divInPlace is schoolbook division of a by b (both trimmed, len(a) >=
// len(b) > 0): it overwrites q[:len(a)-len(b)+1] with the quotient and
// leaves the remainder in a[:len(b)-1]. Each quotient coefficient scales
// a whole row of b, so it gets its ff.ShoupOf companion; a's entries stay
// below 2q until the remainder is reduced.
func (r *Ring) divInPlace(a, b, q []uint64) {
	m, twoM := r.f.Q, 2*r.f.Q
	inv := r.f.Inv(b[len(b)-1])
	invS := ff.ShoupOf(inv, m)
	for i := len(a) - len(b); i >= 0; i-- {
		c := ff.MulShoup(a[i+len(b)-1], inv, invS, m)
		if c >= m {
			c -= m
		}
		q[i] = c
		if c == 0 {
			continue
		}
		cs := ff.ShoupOf(c, m)
		row := a[i : i+len(b)]
		for j, bj := range b {
			row[j] = fold2Q(row[j]+twoM-ff.MulShoup(bj, c, cs, m), twoM)
		}
	}
	ff.ReduceVec4Q(a[:len(b)-1], m)
}

// PartialXGCD runs the extended Euclidean algorithm on (a, b) and stops at
// the first remainder g of degree < stopDeg (stopDeg ≥ 0), returning both
// cofactors: g = u·a + v·b. This is the half-way stop of the Gao decoder
// (paper §2.3): a = G0, b = G1, stopDeg = (e+d+1)/2. g is not formed,
// because the loop never sees all of it: with n = deg a and k = n-stopDeg,
// every remainder before the stop has degree ≥ n-k, so the quotients'
// degrees sum to at most k, and by the half-GCD lemma such quotients are
// functions of the leading 2k+1 coefficients of a and b. The classical
// quadratic loop runs on those alone, in O(k²) whatever n is. (Through
// step i the terms dropped from a and b reach only the remainder's
// coefficients below n-2k+deg v_i ≤ n-k: the leading ones, and whether
// the degree is still ≥ n-k, read the same on the truncated pair.) The
// same lemma, applied to each pair (r0, r1) in turn, lets the loop drop
// every coefficient below x^(2·stopDeg − deg r0) as it goes: those are
// the ones the dropped terms have reached, and no later quotient reads
// them. Each step takes its quotient from the leading coefficients, then
// forms the remainder and both cofactors in one ff.MulAddPoly pass each.
func (r *Ring) PartialXGCD(a, b []uint64, stopDeg int) (u, v []uint64) {
	a, b = Trim(a), Trim(b)
	if Degree(b) < stopDeg {
		return nil, []uint64{1} // b is already the remainder: no step
	}
	if len(a) < len(b) {
		// The first division has quotient 0: the sequence is that of (b, a).
		v, u = r.PartialXGCD(b, a, stopDeg)
		return u, v
	}
	n := len(a) - 1
	k := n - stopDeg
	t := max(n-2*k, 0) // coefficients below x^t are never read
	stop := stopDeg - t
	r0 := append(make([]uint64, 0, len(a)-t), a[t:]...)
	r1 := append(make([]uint64, 0, len(a)-t), b[t:]...)
	u0, u1 := append(make([]uint64, 0, k+1), 1), make([]uint64, 0, k+1)
	v0, v1 := make([]uint64, 0, k+1), append(make([]uint64, 0, k+1), 1)
	q := make([]uint64, 0, len(r0))
	for Degree(r1) >= stop {
		if drop := 2*stop - (len(r0) - 1); drop > 0 {
			r0, r1, stop = r0[drop:], r1[drop:], stop-drop
		}
		q = r.negQuotient(q, r0, r1)
		r.f.MulAddPoly(r0[:len(r1)-1], q, r1)
		r0, r1 = r1, Trim(r0[:len(r1)-1])
		u0, u1 = u1, r.mulAdd(u0, q, u1)
		v0, v1 = v1, r.mulAdd(v0, q, v1)
	}
	return u1, v1
}

// negQuotient returns −(r0 div r1), formed in q's buffer, for trimmed r0
// and r1 with len(r0) >= len(r1): a quotient of degree m is a function
// of the leading m+1 coefficients of r0 and r1, read top down.
func (r *Ring) negQuotient(q, r0, r1 []uint64) []uint64 {
	f, k := r.f, r.f.Kernel()
	m, top := len(r0)-len(r1), len(r1)-1
	q = q[:m+1]
	negInv := k.Shift(f.Neg(f.Inv(r1[top])))
	for i := m; i >= 0; i-- {
		c := r0[i+top]
		for j := i + 1; j <= min(m, i+top); j++ {
			c = f.Add(c, ff.MulK(q[j], r1[i+top-j], k))
		}
		q[i] = ff.MulKS(c, negInv, k)
	}
	return q
}

// mulAdd returns c0 + q·c1, formed in c0's buffer (grown when too short).
func (r *Ring) mulAdd(c0, q, c1 []uint64) []uint64 {
	if len(c1) == 0 {
		return c0
	}
	if need := len(q) + len(c1) - 1; len(c0) < need {
		c0 = append(c0, make([]uint64, need-len(c0))...)
	}
	r.f.MulAddPoly(c0, q, c1)
	return Trim(c0)
}
