// Package yates implements Yates's algorithm (paper §3.1) for multiplying
// a vector by a Kronecker power A^{⊗k} of a small t×s matrix, the
// split/sparse variant of paper §3.2 that delivers the output in
// independent parts sized to a sparse input, and the polynomial extension
// of paper §3.3 that replaces the outer part loop with evaluations of
// part-polynomials at arbitrary field points — the key device behind the
// sparsity-aware Camelot triangle algorithms.
//
// Index convention (paper §3): an index j in [s^k] is identified with its
// k digits (j_1, ..., j_k) in base s, j_1 most significant.
package yates

import (
	"fmt"

	"camelot/internal/ff"
)

// Transform returns y = A^{⊗k} x, where a is the t×s base matrix in
// row-major order (a[i*s+j] = A[i][j], entries already reduced mod f.Q)
// and x has length s^k. The result has length t^k. The input is not
// modified. Work is O((s+t)·max(s,t)^k·k) field operations, space
// O(max(s,t)^k) — exactly paper eq. (5) level by level.
func Transform(f ff.Field, a []uint64, t, s, k int, x []uint64) []uint64 {
	if len(a) != t*s {
		panic(fmt.Sprintf("yates: base matrix %d entries, want %dx%d", len(a), t, s))
	}
	if len(x) != pow(s, k) {
		panic(fmt.Sprintf("yates: input length %d, want %d^%d", len(x), s, k))
	}
	fk := f.Kernel()
	// Double-buffer the level fan-out: the per-level result was
	// previously a fresh allocation, which made the allocator and GC a
	// visible fraction of tight Kronecker pushes (R0^T levels per fanOut
	// call). Both buffers are sized to the largest level.
	maxSize := len(x)
	for l := 1; l <= k; l++ {
		if sz := pow(t, l) * pow(s, k-l); sz > maxSize {
			maxSize = sz
		}
	}
	bufA := make([]uint64, maxSize)
	bufB := make([]uint64, maxSize)
	cur := bufA[:len(x)]
	copy(cur, x)
	// After level ℓ the shape is [t^ℓ][s^{k-ℓ}]; level ℓ contracts digit ℓ.
	for l := 1; l <= k; l++ {
		prefix := pow(t, l-1)
		suffix := pow(s, k-l)
		next := bufB[:prefix*t*suffix]
		clear(next)
		for p := 0; p < prefix; p++ {
			for i := 0; i < t; i++ {
				row := a[i*s:]
				dst := next[(p*t+i)*suffix:]
				for j := 0; j < s; j++ {
					c := row[j]
					if c == 0 {
						continue
					}
					src := cur[(p*s+j)*suffix:]
					if c == 1 {
						for u := 0; u < suffix; u++ {
							dst[u] = f.Add(dst[u], src[u])
						}
						continue
					}
					cs := fk.Shift(c)
					for u := 0; u < suffix; u++ {
						dst[u] = f.Add(dst[u], ff.MulKS(src[u], cs, fk))
					}
				}
			}
		}
		bufA, bufB = bufB, bufA
		cur = next
	}
	return cur
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// Entry is one nonzero coordinate of a sparse input vector.
type Entry struct {
	Index int    // position in [s^k]
	Value uint64 // residue mod q
}

// SplitSparse computes y = A^{⊗k} x for an input vector with |D| nonzero
// entries, delivering the t^k outputs in t^{k-ℓ} independent parts of
// t^ℓ entries each (paper §3.2). Parts can be produced concurrently and
// each costs O((t^{ℓ+1}+s^{ℓ+1})ℓ + |D|) operations and O(t^ℓ + |D|)
// space, never materializing the full output.
type SplitSparse struct {
	f       ff.Field
	a       []uint64 // t×s base
	t, s, k int
	ell     int
	entries []Entry
	// lowDigits[i] caches the k-ℓ least-significant base-s digits of
	// entry i's index (most significant of the low block first).
	lowDigits [][]int
	// highIndex[i] caches the ℓ most-significant digits as one number.
	highIndex []int
}

// NewSplitSparse prepares a split/sparse transform. ell is the number of
// inner (Yates) levels; paper §3.2 picks ell = ⌈log_t |D|⌉, which
// DefaultEll computes. Requires t >= s (paper's standing assumption).
func NewSplitSparse(f ff.Field, a []uint64, t, s, k int, entries []Entry, ell int) (*SplitSparse, error) {
	if t < s {
		return nil, fmt.Errorf("yates: split/sparse requires t >= s, got t=%d s=%d", t, s)
	}
	if len(a) != t*s {
		return nil, fmt.Errorf("yates: base matrix %d entries, want %dx%d", len(a), t, s)
	}
	if ell < 0 || ell > k {
		return nil, fmt.Errorf("yates: ell=%d out of range [0,%d]", ell, k)
	}
	ss := &SplitSparse{
		f: f, a: a, t: t, s: s, k: k, ell: ell,
		entries:   entries,
		lowDigits: make([][]int, len(entries)),
		highIndex: make([]int, len(entries)),
	}
	sHigh := pow(s, ell)
	sLow := pow(s, k-ell)
	for i, e := range entries {
		if e.Index < 0 || e.Index >= sHigh*sLow {
			return nil, fmt.Errorf("yates: entry index %d out of range", e.Index)
		}
		ss.highIndex[i] = e.Index / sLow
		low := e.Index % sLow
		digs := make([]int, k-ell)
		for d := k - ell - 1; d >= 0; d-- {
			digs[d] = low % s
			low /= s
		}
		ss.lowDigits[i] = digs
	}
	return ss, nil
}

// DefaultEll returns the paper's choice ℓ = ⌈log_t |D|⌉ clamped to [0, k].
func DefaultEll(t, k, nnz int) int {
	ell := 0
	size := 1
	for size < nnz && ell < k {
		size *= t
		ell++
	}
	return ell
}

// NumParts returns the number of independent output parts, t^{k-ℓ}.
func (ss *SplitSparse) NumParts() int { return pow(ss.t, ss.k-ss.ell) }

// PartSize returns the number of output entries per part, t^ℓ.
func (ss *SplitSparse) PartSize() int { return pow(ss.t, ss.ell) }

// Part computes output part `outer` in [0, NumParts()): the vector of
// y values whose last k-ℓ output digits equal the base-t digits of outer.
// Part v contains y[v'*t^{k-ℓ} + outer] at position v' for v' in [t^ℓ].
func (ss *SplitSparse) Part(outer int) []uint64 {
	f := ss.f
	// Outer digits, most significant of the low block first.
	outDigs := make([]int, ss.k-ss.ell)
	o := outer
	for d := ss.k - ss.ell - 1; d >= 0; d-- {
		outDigs[d] = o % ss.t
		o /= ss.t
	}
	// Scatter: x^{(ℓ)}_{high} += Π_w a[i_w][j_w] · x_j   (paper step (b)).
	xl := make([]uint64, pow(ss.s, ss.ell))
	for i, e := range ss.entries {
		w := uint64(1)
		for d, jd := range ss.lowDigits[i] {
			w = f.Mul(w, ss.a[outDigs[d]*ss.s+jd])
			if w == 0 {
				break
			}
		}
		if w == 0 {
			continue
		}
		hi := ss.highIndex[i]
		xl[hi] = f.Add(xl[hi], f.Mul(w, e.Value))
	}
	// Inner classical Yates (paper step (c)).
	return Transform(f, ss.a, ss.t, ss.s, ss.ell, xl)
}

// Dense computes the full y = A^{⊗k} x by concatenating parts — a test
// and small-scale convenience (quadratic in part count; real users call
// Part/PartsAtPoint).
func (ss *SplitSparse) Dense() []uint64 {
	nParts := ss.NumParts()
	size := ss.PartSize()
	y := make([]uint64, nParts*size)
	for outer := 0; outer < nParts; outer++ {
		part := ss.Part(outer)
		for v := 0; v < size; v++ {
			y[v*nParts+outer] = part[v]
		}
	}
	return y
}

// PartsAtPoint evaluates the part-polynomials u^{(ℓ)}(z) at z = z0
// (paper §3.3). For z0 = 1, 2, ..., t^{k-ℓ} the result equals
// Part(z0 - 1); at other points it is the degree-(t^{k-ℓ}-1) polynomial
// extension. Cost O(|D|·(k-ℓ) + t^{k-ℓ+1}(k-ℓ) + inner Yates).
func (ss *SplitSparse) PartsAtPoint(z0 uint64) []uint64 {
	f := ss.f
	nOut := ss.k - ss.ell
	// Φ_i(z0) over the 1-based outer range [t^{k-ℓ}].
	phi := f.LagrangeAtOneBased(pow(ss.t, nOut), z0)
	// α_{j_low}(z0) for every low-digit tuple: (Aᵀ)^{⊗(k-ℓ)} Φ.
	at := make([]uint64, ss.s*ss.t)
	for i := 0; i < ss.t; i++ {
		for j := 0; j < ss.s; j++ {
			at[j*ss.t+i] = ss.a[i*ss.s+j]
		}
	}
	alpha := Transform(f, at, ss.s, ss.t, nOut, phi)
	// Scatter with interpolated weights, then inner Yates.
	xl := make([]uint64, pow(ss.s, ss.ell))
	sLow := pow(ss.s, nOut)
	for i, e := range ss.entries {
		low := e.Index % sLow
		w := alpha[low]
		if w == 0 {
			continue
		}
		hi := ss.highIndex[i]
		xl[hi] = f.Add(xl[hi], f.Mul(w, e.Value))
	}
	return Transform(f, ss.a, ss.t, ss.s, ss.ell, xl)
}

// PartPolyDegree returns the degree bound t^{k-ℓ} - 1 of each part
// polynomial u^{(ℓ)}_{i}(z).
func (ss *SplitSparse) PartPolyDegree() int { return pow(ss.t, ss.k-ss.ell) - 1 }

// PartsEvaluator amortizes PartsAtPoint across many points of the same
// transform: the transposed base matrix is built once, the Lagrange
// basis over the 1-based outer range goes through a scratch-reusing
// ff.LagrangeEvaluator (factorial products and fixed denominators
// inverted at construction), and the Φ/x^{(ℓ)} scatter buffers are
// reused between calls. This is the block-evaluation workhorse behind
// compiled plans of the §3.3 polynomial extension.
//
// Like ff.LagrangeEvaluator, a PartsEvaluator is NOT safe for
// concurrent use (shared scratch); build one per goroutine. At(z0) is
// bit-identical to ss.PartsAtPoint(z0) for every z0 — the one-shot and
// amortized Lagrange kernels compute the same residues — which is what
// lets batch and per-point protocol paths share one proof.
type PartsEvaluator struct {
	ss  *SplitSparse
	at  []uint64 // transposed base, s×t
	le  *ff.LagrangeEvaluator
	phi []uint64 // Lagrange basis scratch, length t^{k-ℓ}
	xl  []uint64 // scatter scratch, length s^ℓ
}

// NewPartsEvaluator prepares a reusable part-polynomial evaluator.
func (ss *SplitSparse) NewPartsEvaluator() *PartsEvaluator {
	at := make([]uint64, ss.s*ss.t)
	for i := 0; i < ss.t; i++ {
		for j := 0; j < ss.s; j++ {
			at[j*ss.t+i] = ss.a[i*ss.s+j]
		}
	}
	nOut := ss.k - ss.ell
	return &PartsEvaluator{
		ss:  ss,
		at:  at,
		le:  ss.f.NewLagrangeEvaluatorOneBased(pow(ss.t, nOut)),
		phi: make([]uint64, pow(ss.t, nOut)),
		xl:  make([]uint64, pow(ss.s, ss.ell)),
	}
}

// At evaluates the part-polynomials u^{(ℓ)}(z) at z = z0, exactly like
// SplitSparse.PartsAtPoint but with the per-point setup amortized. The
// returned slice is freshly allocated (the inner Yates transform owns
// it); scratch reuse covers the Lagrange and scatter phases.
func (pe *PartsEvaluator) At(z0 uint64) []uint64 {
	ss := pe.ss
	f := ss.f
	nOut := ss.k - ss.ell
	pe.le.At(z0, pe.phi)
	alpha := Transform(f, pe.at, ss.s, ss.t, nOut, pe.phi)
	clear(pe.xl)
	sLow := pow(ss.s, nOut)
	for i, e := range ss.entries {
		low := e.Index % sLow
		w := alpha[low]
		if w == 0 {
			continue
		}
		hi := ss.highIndex[i]
		pe.xl[hi] = f.Add(pe.xl[hi], f.Mul(w, e.Value))
	}
	return Transform(f, ss.a, ss.t, ss.s, ss.ell, pe.xl)
}

// Zeta computes the subset zeta transform in place over a generic
// commutative monoid: on return vals[Y] = Σ_{X ⊆ Y} vals[X] for every
// mask Y over an n-element ground set (len(vals) must be 2^n). This is
// Yates's algorithm for the base matrix [[1,0],[1,1]] specialized to
// arbitrary element types (the chromatic/Tutte node functions run it over
// bivariate polynomials).
func Zeta[T any](n int, vals []T, add func(dst, src T) T) {
	if len(vals) != 1<<uint(n) {
		panic(fmt.Sprintf("yates: zeta over %d values, want 2^%d", len(vals), n))
	}
	for b := 0; b < n; b++ {
		bit := 1 << uint(b)
		for m := 0; m < len(vals); m++ {
			if m&bit != 0 {
				vals[m] = add(vals[m], vals[m^bit])
			}
		}
	}
}
