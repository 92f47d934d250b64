// Package yates implements Yates's algorithm (paper §3.1) for multiplying
// a vector by a Kronecker power A^{⊗k} of a small t×s matrix, the
// split/sparse variant of paper §3.2 that delivers the output in
// independent parts sized to a sparse input, and the polynomial extension
// of paper §3.3 that replaces the outer part loop with evaluations of
// part-polynomials at arbitrary field points — the key device behind the
// sparsity-aware Camelot triangle algorithms. A sparse input is kept
// grouped by the low digits its weights depend on, so a scatter costs
// one weight per group and one modular add per entry.
//
// Index convention (paper §3): an index j in [s^k] is identified with its
// k digits (j_1, ..., j_k) in base s, j_1 most significant.
package yates

import (
	"fmt"
	"math"

	"camelot/internal/ff"
)

// Transform returns y = A^{⊗k} x, where a is the t×s base matrix in
// row-major order (a[i*s+j] = A[i][j], entries already reduced mod f.Q)
// and x has length s^k. The result has length t^k. The input is not
// modified. Work is O((s+t)·max(s,t)^k·k) field operations, space
// O(max(s,t)^k) — exactly paper eq. (5) level by level. This is the
// one-shot form of the kernel below: compile, allocate scratch, apply.
func Transform(f ff.Field, a []uint64, t, s, k int, x []uint64) []uint64 {
	pw := compile(f, a, t, s, k, 1)
	if len(x) != pow(s, k) {
		panic(fmt.Sprintf("yates: input length %d, want %d^%d", len(x), s, k))
	}
	return pw.apply(x, make([]uint64, pw.scratch()))
}

// term is one non-zero entry A[i][j] of a compiled base row.
type term struct {
	j     int    // source digit
	sign  int    // +1 for coefficient 1, −1 for q−1, 0 for anything else
	c, cs uint64 // the coefficient and its ShoupOf companion; read only when sign == 0
}

// power is A^{⊗k} ⊗ I_run compiled for repeated application — the
// evaluation kernel. Each base row is a term list sorted +1, −1, general,
// so a 0/±1 base (both tensor bases) costs modular adds and subtracts
// only. With run > 1 every index stands for a run of run words that no
// level mixes: the Yates levels above a block layout. A power is
// immutable and safe for concurrent apply calls; the scratch belongs to
// the caller.
type power struct {
	f            ff.Field
	t, s, k, run int
	rows         [][]term
}

func compile(f ff.Field, a []uint64, t, s, k, run int) *power {
	if len(a) != t*s {
		panic(fmt.Sprintf("yates: base matrix %d entries, want %dx%d", len(a), t, s))
	}
	rows := make([][]term, t)
	for i := range rows {
		for _, sign := range []int{1, -1, 0} {
			for j, c := range a[i*s : (i+1)*s] {
				sg := 0
				switch c {
				case 1:
					sg = 1
				case f.Q - 1:
					sg = -1
				}
				if c != 0 && sg == sign {
					rows[i] = append(rows[i], term{j: j, sign: sg, c: c, cs: ff.ShoupOf(c, f.Q)})
				}
			}
		}
	}
	return &power{f: f, t: t, s: s, k: k, run: run, rows: rows}
}

// scratch returns the buffer length apply needs: two copies of the
// largest level, which is the output when t >= s and level one otherwise.
func (pw *power) scratch() int {
	return 2 * pw.run * max(pow(pw.t, pw.k), pw.t*pow(pw.s, pw.k-1))
}

// apply returns (A^{⊗k} ⊗ I_run) x as a slice of buf (length scratch()),
// valid until buf is next written; x is only read. Every level keeps the
// natural row-major layout [prefix][digit][suffix·run] and ping-pongs
// between the halves of buf. All levels together cost the same in
// either axis order, but the heavy ones should own the long contiguous
// suffix: with t >= s the array grows, so the last axis goes first and
// the final level runs over suffix t^{k-1}; with t < s it shrinks, so
// the first axis goes first and level one runs over suffix s^{k-1}.
func (pw *power) apply(x, buf []uint64) []uint64 {
	t, s, k := pw.t, pw.s, pw.k
	b0, b1 := buf[:len(buf)/2], buf[len(buf)/2:]
	if k == 0 {
		return b0[:copy(b0, x[:pw.run])]
	}
	cur := x
	for step := 0; step < k; step++ {
		prefix, suffix := pow(t, step), pow(s, k-1-step)*pw.run
		if t >= s {
			prefix, suffix = pow(s, k-1-step), pow(t, step)*pw.run
		}
		next := b0[:prefix*t*suffix]
		if suffix == 1 {
			pw.scalarLevel(next, cur)
		} else {
			for p := 0; p < prefix; p++ {
				src := cur[p*s*suffix : (p+1)*s*suffix]
				dst := next[p*t*suffix : (p+1)*t*suffix]
				for i, row := range pw.rows {
					pw.combine(dst[i*suffix:(i+1)*suffix], src, row)
				}
			}
		}
		cur, b0, b1 = next, b1, b0
	}
	return cur
}

// scalarLevel is the level of suffix 1 — the lightest one, where a call
// per one-word run would cost more than the arithmetic (37 against 47 µs
// for the whole 7×4, k=5 transform).
func (pw *power) scalarLevel(next, cur []uint64) {
	f := pw.f
	for p := 0; p*pw.t < len(next); p++ {
		src := cur[p*pw.s : (p+1)*pw.s]
		for i, row := range pw.rows {
			acc := uint64(0)
			for _, tm := range row {
				switch tm.sign {
				case 1:
					acc = f.Add(acc, src[tm.j])
				case -1:
					acc = f.Sub(acc, src[tm.j])
				default:
					v := ff.MulShoup(src[tm.j], tm.c, tm.cs, f.Q)
					if v >= f.Q {
						v -= f.Q
					}
					acc = f.Add(acc, v)
				}
			}
			next[p*pw.t+i] = acc
		}
	}
}

// combine writes one output run dst = Σ_j A[i][j]·src_j, where src_j is
// the j-th len(dst)-word run of src. The first one or two terms are
// fused into the pass that first writes dst — no clear, no
// read-modify-write — which covers every row of the Strassen bases; only
// third and later terms, and rows that open with a −1, accumulate.
func (pw *power) combine(dst, src []uint64, row []term) {
	f, n := pw.f, len(dst)
	run := func(tm term) []uint64 { return src[tm.j*n : (tm.j+1)*n] }
	rest := row
	switch {
	case len(row) >= 2 && row[1].sign == 1:
		f.AddVec(dst, run(row[0]), run(row[1]))
		rest = row[2:]
	case len(row) >= 2 && row[0].sign == 1 && row[1].sign == -1:
		f.SubVec(dst, run(row[0]), run(row[1]))
		rest = row[2:]
	case len(row) >= 1 && row[0].sign == 1:
		copy(dst, run(row[0]))
		rest = row[1:]
	case len(row) >= 1 && row[0].sign == 0:
		ff.MulVecShoup(dst, run(row[0]), row[0].c, row[0].cs, f.Q)
		rest = row[1:]
	default:
		clear(dst)
	}
	for _, tm := range rest {
		switch tm.sign {
		case 1:
			f.AddVec(dst, dst, run(tm))
		case -1:
			f.SubVec(dst, dst, run(tm))
		default:
			ff.MulAddVecShoup(dst, run(tm), tm.c, tm.cs, f.Q)
		}
	}
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
// each costs O((t^{ℓ+1}+s^{ℓ+1})ℓ + s^{k-ℓ} + |D|) operations and
// O(t^ℓ + s^{k-ℓ} + |D|) space, never materializing the full output.
type SplitSparse struct {
	f       ff.Field
	a       []uint64 // t×s base
	t, s, k int
	ell     int
	inner   *power // A^{⊗ℓ}: scattered input → one part
	outer   *power // (Aᵀ)^{⊗(k-ℓ)}: Lagrange basis → weight per low index
	// The entries counting-sorted by low index (the k-ℓ least-significant
	// digits, all an entry's weight depends on), shared by siblings: group
	// lo is [start[lo], start[lo+1]) of high (the ℓ most-significant
	// digits as one number) and of vals (nil when every value is 1).
	start []int
	high  []int32
	vals  []uint64
	// The evaluators' layout (Blocked): entry i scatters to at[i], above
	// is A^{⊗(ℓ-cut)} ⊗ I_{s^cut}; naturally at = high and cut = ℓ.
	at    []int32
	above *power
}

// NewSplitSparse prepares a split/sparse transform. ell is the number of
// inner (Yates) levels; paper §3.2 picks ell = ⌈log_t |D|⌉, which
// DefaultEll computes. Requires t >= s (paper's standing assumption) and
// s^ell < 2^31, the range of a scatter position.
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
	if math.Pow(float64(s), float64(ell)) > math.MaxInt32 {
		return nil, fmt.Errorf("yates: %d^%d inner words exceed int32 positions", s, ell)
	}
	sHigh, sLow := pow(s, ell), pow(s, k-ell)
	ss := &SplitSparse{f: f, t: t, s: s, k: k, ell: ell,
		start: make([]int, sLow+1), high: make([]int32, len(entries))}
	for _, e := range entries {
		if e.Index < 0 || e.Index >= sHigh*sLow {
			return nil, fmt.Errorf("yates: entry index %d out of range", e.Index)
		}
		ss.start[e.Index%sLow+1]++
		if e.Value != 1 && ss.vals == nil {
			ss.vals = make([]uint64, len(entries))
		}
	}
	for lo := 0; lo < sLow; lo++ {
		ss.start[lo+1] += ss.start[lo]
	}
	next := append([]int(nil), ss.start[:sLow]...)
	for _, e := range entries {
		lo := e.Index % sLow
		ss.high[next[lo]] = int32(e.Index / sLow)
		if ss.vals != nil {
			ss.vals[next[lo]] = e.Value
		}
		next[lo]++
	}
	return ss.Sibling(a), nil
}

// Sibling returns the transform of ss's entries, shape and ℓ under
// another t×s base a, in the natural layout. The grouped entries are
// shared, not rebuilt.
func (ss *SplitSparse) Sibling(a []uint64) *SplitSparse {
	t, s := ss.t, ss.s
	at := make([]uint64, s*t)
	for i := 0; i < t; i++ {
		for j := 0; j < s; j++ {
			at[j*t+i] = a[i*s+j]
		}
	}
	out := *ss
	out.a, out.inner = a, compile(ss.f, a, t, s, ss.ell, 1)
	out.outer = compile(ss.f, at, s, t, ss.k-ss.ell, 1)
	out.at, out.above = ss.high, compile(ss.f, a, t, s, 0, pow(s, ss.ell))
	return &out
}

// Blocked returns ss with its evaluators' inner vector in blocks of
// s^cut words: inner index h goes to word place[h mod s^cut] (place
// permutes [s^cut]) of block ⌊h/s^cut⌋, and Blocks runs the ℓ-cut levels
// above the blocks, A^{⊗(ℓ-cut)} ⊗ I_{s^cut}. Part is unchanged.
func (ss *SplitSparse) Blocked(cut int, place []int) *SplitSparse {
	if cut < 0 || cut > ss.ell {
		panic(fmt.Sprintf("yates: block cut %d out of range [0,%d]", cut, ss.ell))
	}
	run := int32(pow(ss.s, cut))
	out := *ss
	out.at = make([]int32, len(ss.high))
	for i, h := range ss.high {
		out.at[i] = h - h%run + int32(place[h%run])
	}
	out.above = compile(ss.f, ss.a, ss.t, ss.s, ss.ell-cut, int(run))
	return &out
}

// Groups returns the entries as the evaluators scatter them: group lo,
// the entries of low index lo that Weights(phi)[lo] weighs, sits at
// positions pos[start[lo]:start[lo+1]] of the Blocked inner vector with
// values vals[start[lo]:start[lo+1]], vals nil when every value is 1.
// All three are shared and must not be written.
func (ss *SplitSparse) Groups() (start []int, pos []int32, vals []uint64) {
	return ss.start, ss.at, ss.vals
}

// scatter adds alpha[lo]·x_i at xl[pos[i]] for every entry i, a group
// of low index lo at a time: nothing for a zero weight, and with unit
// values one modular add per entry.
func (ss *SplitSparse) scatter(xl []uint64, pos []int32, alpha []uint64) {
	f, fk := ss.f, ss.f.Kernel()
	for lo, w := range alpha {
		first, end := ss.start[lo], ss.start[lo+1]
		switch {
		case w == 0:
		case ss.vals == nil:
			for _, p := range pos[first:end] {
				xl[p] = f.Add(xl[p], w)
			}
		default:
			for i, p := range pos[first:end] {
				xl[p] = f.Add(xl[p], ff.MulK(w, ss.vals[first+i], fk))
			}
		}
	}
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

// Part computes output part `outer` in [0, NumParts()): the vector of
// y values whose last k-ℓ output digits equal the base-t digits of outer.
// Part v contains y[v'*t^{k-ℓ} + outer] at position v' for v' in [t^ℓ].
func (ss *SplitSparse) Part(outer int) []uint64 {
	// Weight of low index j: Π_w a[i_w][j_w] over the base-t digits i_w
	// of outer, a Kronecker product of base rows built most significant
	// digit first; then the scatter x^{(ℓ)}_{high} += weight·x_j (paper
	// step (b)).
	alpha := []uint64{1}
	for d := ss.k - ss.ell - 1; d >= 0; d-- {
		row := ss.a[outer/pow(ss.t, d)%ss.t*ss.s:][:ss.s]
		next := make([]uint64, 0, len(alpha)*ss.s)
		for _, w := range alpha {
			for _, c := range row {
				next = append(next, ss.f.Mul(w, c))
			}
		}
		alpha = next
	}
	xl := make([]uint64, pow(ss.s, ss.ell))
	ss.scatter(xl, ss.high, alpha)
	// Inner classical Yates (paper step (c)).
	return ss.inner.apply(xl, make([]uint64, ss.inner.scratch()))
}

// PartsEvaluator evaluates the input of the part-polynomials u^{(ℓ)}(z)
// of paper §3.3 at arbitrary points: Scatter gives x^{(ℓ)}(z0), whose
// inner transform A^{⊗ℓ} x^{(ℓ)}(z0) is Part(z0 - 1) for z0 = 1, 2, ...,
// t^{k-ℓ} and the degree-(t^{k-ℓ}-1) polynomial extension elsewhere.
// It costs O(t^{k-ℓ+1}(k-ℓ)) for the weights of the s^{k-ℓ} low
// indices (Weights, all a caller that contracts precomputed group
// products needs) plus one modular add per entry (a multiply too for a
// value other than 1) per point, plus the levels above the blocks for
// Blocks, with no allocation after the first Scatter: the Lagrange
// evaluator (factorial products and fixed denominators inverted at
// construction), the basis and scatter vectors and the kernel's
// ping-pong buffer are all owned here and reused between calls.
//
// Like ff.LagrangeEvaluator, a PartsEvaluator is NOT safe for
// concurrent use (shared scratch); build one per goroutine.
type PartsEvaluator struct {
	ss  *SplitSparse
	le  *ff.LagrangeEvaluator
	phi []uint64 // Lagrange basis scratch, length t^{k-ℓ}
	xl  []uint64 // scatter scratch, length s^ℓ, built by the first Scatter
	buf []uint64 // kernel scratch: the weights, then the levels above the blocks
}

// NewPartsEvaluator prepares a reusable part-polynomial evaluator.
func (ss *SplitSparse) NewPartsEvaluator() *PartsEvaluator {
	nParts := ss.NumParts()
	return ss.newPartsEvaluator(ss.f.NewLagrangeEvaluatorOneBased(nParts), make([]uint64, nParts))
}

func (ss *SplitSparse) newPartsEvaluator(le *ff.LagrangeEvaluator, phi []uint64) *PartsEvaluator {
	n := ss.outer.scratch()
	if ss.above.k > 0 {
		n = max(n, ss.above.scratch())
	}
	return &PartsEvaluator{ss: ss, le: le, phi: phi, buf: make([]uint64, n)}
}

// Sibling returns an evaluator for ss, a transform over pe's part grid
// with another base, that shares pe's Lagrange basis: one Basis or
// SweepBasis on pe serves every sibling's Scatter. For concurrent use the
// two are one evaluator.
func (pe *PartsEvaluator) Sibling(ss *SplitSparse) *PartsEvaluator {
	if ss.NumParts() != pe.ss.NumParts() {
		panic("yates: sibling evaluator over a different part grid")
	}
	return ss.newPartsEvaluator(pe.le, pe.phi)
}

// Basis returns Φ(z0), the Lagrange basis over the 1-based outer range
// [t^{k-ℓ}], valid until the next Basis on this evaluator. It depends on
// the grid alone, so evaluators of transforms that differ only in their
// base can share one Basis per point.
func (pe *PartsEvaluator) Basis(z0 uint64) []uint64 { return pe.le.At(z0, pe.phi) }

// SweepBasis calls visit(p, Φ(zs[p])) for every point of zs in order:
// Basis over a block, at one field inversion per run of consecutive
// points (ff.LagrangeEvaluator.Sweep) where Basis pays one per point.
// phi is valid until visit returns and must not be written.
func (pe *PartsEvaluator) SweepBasis(zs []uint64, visit func(p int, phi []uint64)) {
	pe.le.Sweep(zs, visit)
}

// Weights returns α(z0) = (Aᵀ)^{⊗(k-ℓ)} phi, the weight of every low
// index and so of every group of Groups, given phi = Basis(z0). The
// result is the evaluator's own scratch, valid until its next Weights,
// Scatter or Blocks, and must not be written. An evaluator that only
// weighs never builds the s^ℓ-word scatter vector.
func (pe *PartsEvaluator) Weights(phi []uint64) []uint64 { return pe.ss.outer.apply(phi, pe.buf) }

// Scatter returns x^{(ℓ)}(z0) in ss's layout, given phi = Basis(z0):
// paper step (b) with the weights interpolated. The result is the
// evaluator's own scratch, valid until its next Weights, Scatter or
// Blocks, and must not be written.
func (pe *PartsEvaluator) Scatter(phi []uint64) []uint64 {
	if pe.xl == nil {
		pe.xl = make([]uint64, pow(pe.ss.s, pe.ss.ell))
	} else {
		clear(pe.xl)
	}
	pe.ss.scatter(pe.xl, pe.ss.at, pe.Weights(phi))
	return pe.xl
}

// Blocks returns (A^{⊗(ℓ-cut)} ⊗ I_{s^cut}) Scatter(phi): run j of s^cut
// words is block j after the levels above the blocks, and with none
// (cut = ℓ, as in the natural layout) it is Scatter(phi) itself. Same
// lifetime as Scatter's.
func (pe *PartsEvaluator) Blocks(phi []uint64) []uint64 {
	xl := pe.Scatter(phi)
	if pe.ss.above.k == 0 {
		return xl
	}
	return pe.ss.above.apply(xl, pe.buf)
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
