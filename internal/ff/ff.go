// Package ff implements arithmetic in prime fields Z_q for word-sized
// primes q, together with the primality and prime-search utilities the
// Camelot framework uses to pick proof moduli (paper §1.3, §2.2).
//
// All element values are canonical residues in [0, q). Operations never
// allocate; a Field is a small value type that is cheap to copy.
//
// # Division-free reduction
//
// A Field built by New (or Must) carries a precomputed reciprocal of its
// modulus, so Mul, Exp, ReduceU, and Horner reduce 128-bit intermediates
// with two multiplications and a few shifts — no hardware division
// instruction — via Möller–Granlund 2-by-1 division against the
// normalized modulus (the Barrett idea with a word-sized reciprocal).
// A multiplier fixed for a whole loop goes further: ShoupOf pays one
// division for its companion, and MulShoup then needs no reduction.
// Construct Fields only through New/Must: a Field assembled as a struct
// literal has no reciprocal and Mul/ReduceU panic on it. The old
// division-based reduction survives as an unexported reference
// implementation that differential tests in this package pin the
// reciprocal path against, bit for bit. A repo-level lint test forbids
// ff.Field literals outside this package.
package ff

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// MaxPrime is the largest modulus the package accepts. Keeping q below
// 2^62 guarantees that a+b never wraps uint64 and that 128-bit product
// reduction cannot overflow its quotient (hi < q always holds for
// canonical operands).
const MaxPrime = 1<<62 - 1

// ErrNotPrime is returned by New when the requested modulus fails the
// primality test.
var ErrNotPrime = errors.New("ff: modulus is not prime")

// Field is the prime field Z_q. The zero value is invalid; construct
// with New (checked) or Must (panics on error, for constants in tests).
type Field struct {
	// Q is the prime modulus. Read-only; treat the whole struct as opaque
	// and construct only through New/Must so the reduction kernel below
	// is populated.
	Q uint64
	// k is the division-free reduction kernel (see Kernel).
	k Kernel
}

// Kernel is the precomputed reduction state of a Field: the
// normalization shift s = bits.LeadingZeros64(Q), the normalized modulus
// d = Q<<s (top bit set), and the Möller–Granlund reciprocal
// v = floor((2^128-1)/d) - 2^64. v is zero iff the Field skipped the
// constructor.
//
// Kernel exists as a separate value type for one reason: a free function
// taking (a, b uint64, k Kernel) fits the compiler's inlining budget,
// while the equivalent Field method does not. Hot loops hoist the kernel
// once — k := f.Kernel() — and call MulK(a, b, k) per element; everything
// else should use the Field methods. The fields are unexported so a
// Kernel cannot be forged or modified outside this package.
type Kernel struct {
	s uint64 // normalization shift
	d uint64 // normalized modulus Q << s
	v uint64 // reciprocal of d
}

// Kernel returns the field's reduction kernel for use with MulK in
// inline-critical loops. It panics on a Field that skipped the
// constructor.
func (f Field) Kernel() Kernel {
	if f.k.v == 0 {
		panic("ff: Field not built by New/Must")
	}
	return f.k
}

// MulK returns a*b mod q for canonical operands a, b < q — exactly
// Field.Mul, written as a free function so it inlines into hot loops.
//
// Reduction is Möller–Granlund 2-by-1 division by the precomputed
// reciprocal: two multiplications, one 128-bit add, and two conditional
// corrections — no div instruction. Pre-shifting one canonical operand
// normalizes the product for free: a·(b·2^s) = (a·b)·2^s < q·d <=
// d·2^64, so (hi, lo) is exactly the normalized dividend with hi < d.
//
// NOTE: the inlining cost of this function sits exactly at the
// compiler's budget. After any edit here, verify that
// `go build -gcflags=-m=2 ./internal/ff` still reports "can inline
// MulK"; TestMulKStaysInlinable guards it.
func MulK(a, b uint64, k Kernel) uint64 {
	hi, lo := bits.Mul64(a, b<<k.s)
	// Estimate the quotient: qh:ql = hi*v + (hi+1)·2^64 + lo.
	qh, ql := bits.Mul64(hi, k.v)
	var carry uint64
	ql, carry = bits.Add64(ql, lo, 0)
	qh, _ = bits.Add64(qh, hi+1, carry)
	// Remainder candidate plus at most two corrections (Möller–Granlund
	// Algorithm 4; the quotient itself is not needed).
	r := lo - qh*k.d
	if r > ql {
		r += k.d
	}
	if r >= k.d {
		r -= k.d
	}
	return r >> k.s
}

// Shift pre-normalizes a canonical operand for MulKS: in a loop that
// multiplies a stream by one fixed value (an NTT twiddle, Horner's x, a
// scalar), the kernel's normalization shift of that value is
// loop-invariant, and the compiler does not hoist it on its own (no
// loop-invariant code motion). Shift once, then call MulKS per element.
func (k Kernel) Shift(b uint64) uint64 { return b << k.s }

// MulKS is MulK with the second operand already normalized by
// Kernel.Shift: returns a*b mod q where bs = Shift(b) for canonical
// a, b < q. One shift cheaper than MulK — the difference matters in the
// tightest loops (NTT butterflies, polynomial division rows), which
// multiply long streams by per-loop constants.
func MulKS(a, bs uint64, k Kernel) uint64 {
	hi, lo := bits.Mul64(a, bs)
	qh, ql := bits.Mul64(hi, k.v)
	var carry uint64
	ql, carry = bits.Add64(ql, lo, 0)
	qh, _ = bits.Add64(qh, hi+1, carry)
	r := lo - qh*k.d
	if r > ql {
		r += k.d
	}
	if r >= k.d {
		r -= k.d
	}
	return r >> k.s
}

// ShoupOf returns w′ = ⌊w·2^64/q⌋, the companion MulShoup takes beside a
// fixed multiplier w < q: one hardware division, paid once per table entry
// or per constant that serves a whole polynomial.
func ShoupOf(w, q uint64) uint64 {
	ws, _ := bits.Div64(w, 0, q)
	return ws
}

// MulShoup returns x·w mod q in [0, 2q) for any x < 2^64, given w < q and
// ws = ShoupOf(w, q): Shoup's precomputed-quotient product, one high and
// two low multiplications and no 128-bit reduction. hi = ⌊x·ws/2^64⌋
// undershoots x·w/q by less than 2, so x·w − hi·q lies in [0, 2q) and is
// exact in 64-bit arithmetic for q < 2^63. The lazy result suits loops
// that keep Harvey's [0, 4q) invariant; others subtract q once.
func MulShoup(x, w, ws, q uint64) uint64 {
	hi, _ := bits.Mul64(x, ws)
	return x*w - hi*q
}

// fieldCache memoizes New per modulus: problems construct a Field per
// Evaluate call (the modulus travels as a plain uint64 through the
// Problem interface), so construction must cost a map lookup, not a
// Miller–Rabin run. Only successful constructions are cached; the number
// of distinct moduli per process is bounded by the protocol's prime
// selections.
var fieldCache sync.Map // uint64 -> Field

// New returns the field Z_q, verifying that q is prime and in range and
// precomputing the division-free reduction constants. Results are
// memoized per modulus; New is safe for concurrent use and cheap to call
// in per-evaluation hot paths.
func New(q uint64) (Field, error) {
	if v, ok := fieldCache.Load(q); ok {
		return v.(Field), nil
	}
	if q < 2 || q > MaxPrime {
		return Field{}, fmt.Errorf("ff: modulus %d out of range [2, 2^62): %w", q, ErrNotPrime)
	}
	if !IsPrime(q) {
		return Field{}, fmt.Errorf("ff: modulus %d: %w", q, ErrNotPrime)
	}
	f := newUnchecked(q)
	fieldCache.Store(q, f)
	return f, nil
}

// Must is like New but panics on error. Intended for tests, package
// initialization of known-prime constants, and call sites whose modulus
// comes from the framework's own prime selection (where a non-prime is a
// programming error, not an input error).
func Must(q uint64) Field {
	f, err := New(q)
	if err != nil {
		panic(err)
	}
	return f
}

// newUnchecked builds a Field with reduction constants for an arbitrary
// modulus q >= 2, skipping the primality check. The reduction algebra
// does not require primality, so this also serves the transient
// composite moduli inside IsPrime. The one hardware division below is
// the only one on any constructed Field's lifetime.
func newUnchecked(q uint64) Field {
	s := uint64(bits.LeadingZeros64(q))
	d := q << s
	v, _ := bits.Div64(^d, ^uint64(0), d) // floor((2^128-1)/d) - 2^64
	return Field{Q: q, k: Kernel{s: s, d: d, v: v}}
}

// Add returns a+b mod q for canonical operands. Written as a single
// conditional assignment so the compiler emits a branch-free CMOV — the
// condition is data-random in the hot loops, and a mispredicted branch
// costs more than the whole reduction. (a+b cannot wrap: operands are
// < q <= MaxPrime < 2^62.)
func (f Field) Add(a, b uint64) uint64 {
	s := a + b
	if s >= f.Q {
		s -= f.Q
	}
	return s
}

// Sub returns a-b mod q for canonical operands. Same CMOV-friendly
// single-assignment shape as Add.
func (f Field) Sub(a, b uint64) uint64 {
	d := a - b
	if a < b {
		d += f.Q
	}
	return d
}

// Neg returns -a mod q.
func (f Field) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return f.Q - a
}

// Mul returns a*b mod q using a 128-bit intermediate product, with the
// division-free reduction of MulK. Operands must be canonical (< q); the
// result always is. Mul panics on a Field that skipped the constructor —
// loud, instead of the silent garbage an uninitialized reciprocal would
// produce. (The method itself exceeds the inlining budget; loops where
// the per-call overhead matters hoist f.Kernel() and use MulK.)
func (f Field) Mul(a, b uint64) uint64 {
	if f.k.v == 0 {
		panic("ff: Field not built by New/Must")
	}
	return MulK(a, b, f.k)
}

// Reduce maps an arbitrary signed integer into [0, q).
func (f Field) Reduce(x int64) uint64 {
	m := x % int64(f.Q)
	if m < 0 {
		m += int64(f.Q)
	}
	return uint64(m)
}

// ReduceU maps an arbitrary unsigned integer into [0, q). Same
// division-free reduction as Mul, specialized to a one-word dividend.
func (f Field) ReduceU(x uint64) uint64 { return reduce2(0, x, f.Kernel()) }

// reduce2 returns (u1·2^64 + u0) mod q for u1 < q, normalizing the
// dividend by an explicit 128-bit shift (Go defines x>>64 as 0, so even
// shift 0, for the transient moduli inside IsPrime, works).
func reduce2(u1, u0 uint64, k Kernel) uint64 {
	return reduceShifted(u1<<k.s|u0>>(64-k.s), u0<<k.s, k)
}

// reduceShifted returns (n1·2^64 + n0)/2^s mod q for a dividend already
// normalized by the kernel's shift (n1 < d): MulKS's tail, small enough to
// inline into loops that sum shifted products themselves.
func reduceShifted(n1, n0 uint64, k Kernel) uint64 {
	qh, ql := bits.Mul64(n1, k.v)
	var carry uint64
	ql, carry = bits.Add64(ql, n0, 0)
	qh, _ = bits.Add64(qh, n1+1, carry)
	r := n0 - qh*k.d
	if r > ql {
		r += k.d
	}
	if r >= k.d {
		r -= k.d
	}
	return r >> k.s
}

// Exp returns a^e mod q by square-and-multiply.
func (f Field) Exp(a, e uint64) uint64 {
	a = f.ReduceU(a)
	k := f.k
	result := uint64(1 % f.Q)
	for e > 0 {
		if e&1 == 1 {
			result = MulK(result, a, k)
		}
		a = MulK(a, a, k)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a mod q. It panics if a == 0;
// callers own the zero check (division by zero is a programming error,
// not an input error, everywhere this package is used).
func (f Field) Inv(a uint64) uint64 {
	if a == 0 {
		panic("ff: inverse of zero")
	}
	// Fermat: a^(q-2). Extended Euclid would be marginally faster but the
	// exponentiation is branch-free and obviously correct.
	return f.Exp(a, f.Q-2)
}

// Div returns a/b mod q. Panics if b == 0.
func (f Field) Div(a, b uint64) uint64 { return f.Mul(a, f.Inv(b)) }

// BatchInv inverts every element of xs in place using Montgomery's trick
// (3(n-1) multiplications plus one inversion). Panics if any element is 0.
func (f Field) BatchInv(xs []uint64) {
	if len(xs) == 0 {
		return
	}
	f.BatchInvScratch(xs, make([]uint64, len(xs)))
}

// BatchInvScratch is BatchInv with a caller-provided prefix buffer of at
// least len(xs) elements, for hot paths that invert repeatedly over the
// same geometry (e.g. LagrangeEvaluator.At) and would otherwise allocate
// per call. The scratch contents are overwritten.
func (f Field) BatchInvScratch(xs, scratch []uint64) {
	if len(xs) == 0 {
		return
	}
	k := f.Kernel()
	prefix := scratch[:len(xs)]
	acc := uint64(1)
	for i, x := range xs {
		if x == 0 {
			panic("ff: batch inverse of zero")
		}
		prefix[i] = acc
		acc = MulK(acc, x, k)
	}
	inv := f.Inv(acc)
	for i := len(xs) - 1; i >= 0; i-- {
		x := xs[i]
		xs[i] = MulK(inv, prefix[i], k)
		inv = MulK(inv, x, k)
	}
}

// IsPrime reports whether n is prime, using a deterministic Miller–Rabin
// witness set valid for all 64-bit integers.
func IsPrime(n uint64) bool {
	switch {
	case n < 2:
		return false
	case n < 4:
		return true
	case n%2 == 0:
		return false
	}
	d := n - 1
	r := 0
	for d%2 == 0 {
		d /= 2
		r++
	}
	// The candidate modulus is composite until proven otherwise, so build
	// the reduction constants directly (they are valid for any n >= 2).
	f := newUnchecked(n)
	// Sinclair's deterministic base set for n < 2^64.
	for _, a := range [...]uint64{2, 325, 9375, 28178, 450775, 9780504, 1795265022} {
		a %= n
		if a == 0 {
			continue
		}
		if !millerRabinWitness(f, a, d, r) {
			return false
		}
	}
	return true
}

// millerRabinWitness reports whether n = f.Q passes one Miller–Rabin
// round with base a, where n-1 = d * 2^r with d odd.
func millerRabinWitness(f Field, a, d uint64, r int) bool {
	n := f.Q
	x := f.Exp(a, d)
	if x == 1 || x == n-1 {
		return true
	}
	for i := 0; i < r-1; i++ {
		x = f.Mul(x, x)
		if x == n-1 {
			return true
		}
	}
	return false
}

// NextPrime returns the smallest prime >= n.
func NextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for !IsPrime(n) {
		n += 2
	}
	return n
}

// NTTPrime returns the smallest prime q >= min of the form c*2^k + 1 with
// 2^k >= order, together with a primitive 2^k-th root of unity mod q.
// Such primes admit radix-2 NTT convolution of length up to 2^k, which the
// polynomial package uses for quasi-linear encoding/decoding (paper §2.2).
func NTTPrime(min uint64, order int) (q, root uint64, err error) {
	if order < 1 {
		order = 1
	}
	k := 0
	for 1<<k < order {
		k++
	}
	if k > 40 {
		return 0, 0, fmt.Errorf("ff: NTT order 2^%d too large", k)
	}
	if min > MaxPrime {
		// Also keeps min+step below from wrapping past 2^64.
		return 0, 0, fmt.Errorf("ff: no prime >= %d below 2^62", min)
	}
	step := uint64(1) << k
	// Smallest candidate c*2^k+1 >= max(min, 2^k+1): c = ⌈(min-1)/2^k⌉,
	// so a min that is itself a candidate is tried first.
	c := uint64(1)
	if min > step+1 {
		c = (min - 2 + step) / step
	}
	for {
		q = c*step + 1
		if q < min {
			c++
			continue
		}
		if q > MaxPrime {
			return 0, 0, fmt.Errorf("ff: no NTT prime of order 2^%d below 2^62 and >= %d", k, min)
		}
		if IsPrime(q) {
			return q, newUnchecked(q).RootOfUnity(k), nil
		}
		c++
	}
}

// RootOfUnity returns a primitive 2^k-th root of unity of Z_q, for a
// prime q with 2^k | q-1; it panics when 2^k does not divide q-1.
//
// The root comes from the smallest quadratic non-residue x — by Euler's
// criterion x^((q-1)/2) = -1 — as r = x^((q-1)/2^k): then
// r^(2^(k-1)) = -1, so r has order exactly 2^k. No factor of q-1 other
// than its power of two is ever needed, where a generator search would
// have to factorize all of q-1: up to 2^29 trial divisions for a 61-bit
// q whose (q-1)/2^k has a large prime factor. Half of Z_q* are
// non-residues and the smallest is tiny, so the whole search is a
// handful of exponentiations and is not memoized.
func (f Field) RootOfUnity(k int) uint64 {
	if k < 0 || (f.Q-1)&(1<<uint(k)-1) != 0 {
		panic(fmt.Sprintf("ff: no 2^%d-th root of unity mod %d", k, f.Q))
	}
	if k == 0 {
		return 1
	}
	x := uint64(2)
	for f.Exp(x, (f.Q-1)/2) != f.Q-1 {
		x++
	}
	return f.Exp(x, (f.Q-1)>>uint(k))
}
