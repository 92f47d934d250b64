package ff

// This file implements the Lagrange evaluation kernels of paper §5.3 and
// §3.3: given a point x0, produce the full vector of Lagrange basis values
// over the consecutive node sets {1..R} or {0..R-1} in O(R) operations,
// via the factorial recurrence
//
//	Λ_r(x0) = Γ(x0) / ((-1)^{R-r} F_{r-1} F_{R-r} (x0-r)),   Γ(x0) = Π_{j=1..R} (x0-j).
//
// These vectors seed Yates's algorithm when evaluating the interpolated
// tensor coefficients α_de(x0), β_ef(x0), γ_df(x0).
//
// Every kernel requires q > R (checked once per call): the grid points
// are then distinct canonical residues, so the inner loops use j and r
// directly without a per-iteration reduction.

import "math/bits"

// checkGrid panics unless the modulus exceeds the grid size — the
// documented precondition that lets the kernels skip reducing the grid
// points and factorial arguments.
func (f Field) checkGrid(bigR int) {
	if uint64(bigR) >= f.Q {
		panic("ff: Lagrange grid size must be smaller than the modulus")
	}
}

// LagrangeAtOneBased returns the vector (Λ_1(x0), ..., Λ_R(x0)) mod q for
// the Lagrange basis over the points 1..R (paper eq. (13)).
//
// The modulus must satisfy q > R so the points are distinct mod q.
func (f Field) LagrangeAtOneBased(bigR int, x0 uint64) []uint64 {
	return f.lagrangeAt(bigR, 1, x0)
}

// LagrangeAtZeroBased returns the vector (Φ_0(x0), ..., Φ_{R-1}(x0)) mod q
// for the Lagrange basis over the points 0..R-1. This variant serves proof
// polynomials whose natural evaluation grid starts at zero (permanent, set
// covers, §3.3 polynomial extension with 1-based ranges shifted).
//
// The modulus must satisfy q > R so the points are distinct mod q.
func (f Field) LagrangeAtZeroBased(bigR int, x0 uint64) []uint64 {
	return f.lagrangeAt(bigR, 0, x0)
}

// lagrangeAt is the basis over the grid base..base+R-1 at x0, with
// F_j = j! and Γ(x0) = Π_i (x0-point_i):
// out[i] = Γ(x0) / ((-1)^{R-1-i} F_i F_{R-1-i} (x0-point_i)).
func (f Field) lagrangeAt(bigR int, base, x0 uint64) []uint64 {
	f.checkGrid(bigR)
	out := make([]uint64, bigR)
	x0 = f.ReduceU(x0)
	// If x0 is one of the interpolation points the basis is an indicator.
	if x0 >= base && x0 < base+uint64(bigR) {
		out[x0-base] = 1
		return out
	}
	k := f.Kernel()
	fact := make([]uint64, bigR)
	fact[0] = 1
	for j := 1; j < bigR; j++ {
		fact[j] = MulK(fact[j-1], uint64(j), k)
	}
	gamma := uint64(1)
	denoms := make([]uint64, bigR)
	for i := range denoms {
		diff := f.Sub(x0, base+uint64(i))
		denoms[i] = diff
		gamma = MulK(gamma, diff, k)
	}
	// The denominators, inverted in one batch.
	for i, diff := range denoms {
		d := MulK(MulK(fact[i], fact[bigR-1-i], k), diff, k)
		if (bigR-1-i)%2 == 1 {
			d = f.Neg(d)
		}
		denoms[i] = d
	}
	f.BatchInv(denoms)
	for i, d := range denoms {
		out[i] = MulK(gamma, d, k)
	}
	return out
}

// BitSweepAt returns the bit-sweeping interpolation vector of paper
// Appendix A.5 at one point: D_j(x0) = Σ_{i : bit j of i set} Φ_i(x0) for
// j < nbits, over the grid 0..2^nbits-1, so that D(i) is the bit pattern
// of i on the grid. This is the one-shot form the problems' per-point
// Evaluate paths use; LagrangeEvaluator.BitSweepBlock derives the same
// vector another way for whole blocks.
func (f Field) BitSweepAt(nbits int, x0 uint64) []uint64 {
	z := make([]uint64, nbits)
	for i, v := range f.LagrangeAtZeroBased(1<<uint(nbits), x0) {
		if v == 0 {
			continue
		}
		for b := uint(i); b != 0; b &= b - 1 {
			j := bits.TrailingZeros(b)
			z[j] = f.Add(z[j], v)
		}
	}
	return z
}

// LagrangeEvaluator amortizes repeated Lagrange basis evaluations over a
// fixed consecutive grid (base..base+R-1, base 0 or 1): the
// factorial-derived denominator factors are inverted once at
// construction, and every evaluation is one window of inverted
// differences x-point_i times those fixed factors. At evaluates the
// basis at one point; Sweep hands out the basis at every point of a
// block and BitSweepBlock the bit sums of the basis, both sharing one
// window — one field inversion, a Fermat exponentiation whose length is
// the width of q — across each run of consecutive points.
//
// The fixed factors are read-only after construction. At works in the
// evaluator's own scratch and is NOT safe for concurrent use (build one
// evaluator per goroutine); Sweep allocates its scratch per call and
// BitSweepBlock works in caller scratch only, so one evaluator on a
// compiled plan serves concurrent blocks.
//
// Kept separate from the one-shot LagrangeAt*Based kernels on purpose:
// the one-shot folds the per-point factor into a single batch
// inversion (cheaper for a single evaluation), the evaluator splits
// fixed from per-point factors (cheaper across many), and the two
// derivations cross-check each other in TestLagrangeEvaluatorMatchesOneShot
// and TestBitSweepBlockMatchesOneShot.
type LagrangeEvaluator struct {
	f    Field
	bigR int
	base uint64 // first grid point: 0 or 1
	// invFixed[i] = 1 / ((-1)^{R-1-i} F_i F_{R-1-i}) for grid position i,
	// invFixedS[i] its ShoupOf companion.
	invFixed, invFixedS []uint64
	diffs               []uint64 // At's scratch: the window of one point
	prefix              []uint64 // At's scratch for the batch inversion's prefix products
}

// NewLagrangeEvaluatorOneBased prepares an evaluator for the grid 1..R —
// the reusable form of LagrangeAtOneBased. Requires q > R.
func (f Field) NewLagrangeEvaluatorOneBased(bigR int) *LagrangeEvaluator {
	return f.newLagrangeEvaluator(bigR, 1)
}

// NewLagrangeEvaluatorZeroBased prepares an evaluator for the grid
// 0..R-1 — the reusable form of LagrangeAtZeroBased. Requires q > R.
func (f Field) NewLagrangeEvaluatorZeroBased(bigR int) *LagrangeEvaluator {
	return f.newLagrangeEvaluator(bigR, 0)
}

func (f Field) newLagrangeEvaluator(bigR int, base uint64) *LagrangeEvaluator {
	f.checkGrid(bigR)
	k := f.Kernel()
	le := &LagrangeEvaluator{
		f: f, bigR: bigR, base: base,
		invFixed:  make([]uint64, bigR),
		invFixedS: make([]uint64, bigR),
		diffs:     make([]uint64, bigR),
		prefix:    make([]uint64, bigR),
	}
	fact := le.diffs // scratch until the first At
	fact[0] = 1
	for j := 1; j < bigR; j++ {
		fact[j] = MulK(fact[j-1], uint64(j), k)
	}
	for i := 0; i < bigR; i++ {
		d := MulK(fact[i], fact[bigR-1-i], k)
		if (bigR-1-i)%2 == 1 {
			d = f.Neg(d)
		}
		le.invFixed[i] = d
	}
	f.BatchInvScratch(le.invFixed, le.prefix)
	for i, w := range le.invFixed {
		le.invFixedS[i] = ShoupOf(w, f.Q)
	}
	return le
}

// onGrid reports whether the canonical residue x is a grid point.
func (le *LagrangeEvaluator) onGrid(x uint64) bool {
	return x >= le.base && x < le.base+uint64(le.bigR)
}

// window inverts, in one batch, every difference x-point_i that the run
// of n consecutive off-grid residues x0, ..., x0+n-1 (all below q) has
// with the grid: they are the n+R-1 consecutive residues from
// x0+n-1-base downwards, so inv[u] = 1/(x0+n-1-base-u) and the point
// x0+p reads its R inverses, in grid order, at inv[n-1-p:]. inv and
// prefix must hold n+R-1 words. It returns Γ(x0) = Π_i (x0-point_i).
func (le *LagrangeEvaluator) window(x0 uint64, n int, inv, prefix []uint64) uint64 {
	f := le.f
	k := f.Kernel()
	d := f.Sub(x0+uint64(n-1), le.base)
	for u := range inv {
		inv[u] = d
		d = f.Sub(d, 1)
	}
	gamma := uint64(1)
	for _, d := range inv[n-1:] {
		gamma = MulK(gamma, d, k)
	}
	f.BatchInvScratch(inv, prefix)
	return gamma
}

// runLen is the length of the run of consecutive off-grid residues that
// starts at xs[0] = x0 (canonical, off the grid), at most limit points.
func (le *LagrangeEvaluator) runLen(xs []uint64, x0 uint64, limit int) int {
	n := 1
	for n < len(xs) && n < limit {
		x := le.f.ReduceU(xs[n])
		if x != x0+uint64(n) || le.onGrid(x) {
			break
		}
		n++
	}
	return n
}

// slide moves Γ one point along a run of n whose window is inv: given
// gamma = Γ(x-1) at x = x0+p, p >= 1, it returns
// Γ(x) = Γ(x-1)·(x-base)/(x-1-base-(R-1)).
func (le *LagrangeEvaluator) slide(gamma, x0 uint64, p, n int, inv []uint64) uint64 {
	k := le.f.Kernel()
	return MulK(MulK(gamma, le.f.Sub(x0+uint64(p), le.base), k), inv[n-p+le.bigR-1], k)
}

// At writes the basis vector (Λ_base(x0), ..., Λ_{base+R-1}(x0)) into
// out (which must have length R) and returns it. out may be reused
// across calls. It is the run of one point of the derivation Sweep and
// BitSweepBlock spread over a block: Λ_i(x0) = Γ(x0)·invFixed[i]/(x0-point_i).
func (le *LagrangeEvaluator) At(x0 uint64, out []uint64) []uint64 {
	f := le.f
	if len(out) != le.bigR {
		panic("ff: LagrangeEvaluator.At output length mismatch")
	}
	x0 = f.ReduceU(x0)
	if le.onGrid(x0) {
		clear(out)
		out[x0-le.base] = 1
		return out
	}
	le.scale(out, le.diffs, le.window(x0, 1, le.diffs, le.prefix))
	return out
}

// scale writes lam[i] = Γ·invFixed[i]·inv[i], the basis at a point whose
// R inverted differences are inv and Γ gamma: two Shoup products per
// entry, the first lazy.
func (le *LagrangeEvaluator) scale(lam, inv []uint64, gamma uint64) {
	q := le.f.Q
	gs := ShoupOf(gamma, q)
	inv, ws := inv[:len(lam)], le.invFixedS[:len(lam)]
	for i, w := range le.invFixed[:len(lam)] {
		lam[i] = reduce2Q(MulShoup(MulShoup(inv[i], w, ws[i], q), gamma, gs, q), q)
	}
}

// sweepRun caps the runs of Sweep: 64 points share an inversion, and the
// window stays at R+63 words however long the block.
const sweepRun = 64

// Sweep calls visit(p, Λ(xs[p])) for p = 0, ..., len(xs)-1 in order,
// where Λ(x) is the basis vector At writes — the block form of a
// per-point At loop, for callers that consume the whole vector at each
// point. A maximal run of consecutive off-grid residues (cut at sweepRun
// points) shares one window of inverted differences, so a block of
// consecutive points — what the engine's ranges are — costs one field
// inversion per 64 points where At costs one per point; Γ slides along
// the run as in BitSweepBlock. Any xs are accepted; only consecutive
// ones share work. The vectors are bit-identical to At's.
//
// lam is Sweep's own buffer, valid until visit returns and not to be
// written. The evaluator itself is only read, so calls may run
// concurrently.
func (le *LagrangeEvaluator) Sweep(xs []uint64, visit func(p int, lam []uint64)) {
	f, bigR := le.f, le.bigR
	w := min(len(xs), sweepRun) + bigR - 1
	buf := make([]uint64, bigR+2*w)
	lam, invBuf, prefix := buf[:bigR], buf[bigR:bigR+w], buf[bigR+w:]
	for p0 := 0; p0 < len(xs); {
		x0 := f.ReduceU(xs[p0])
		if le.onGrid(x0) {
			clear(lam)
			lam[x0-le.base] = 1
			visit(p0, lam)
			p0++
			continue
		}
		n := le.runLen(xs[p0:], x0, sweepRun)
		inv := invBuf[:n+bigR-1]
		gamma := le.window(x0, n, inv, prefix)
		for p := 0; p < n; p++ {
			if p > 0 {
				gamma = le.slide(gamma, x0, p, n, inv)
			}
			le.scale(lam, inv[n-1-p:], gamma)
			visit(p0+p, lam)
		}
		p0 += n
	}
}

// SweepBits is the number of coordinates of the bit-swept vector over the
// evaluator's grid: the bits of its largest grid position R-1.
func (le *LagrangeEvaluator) SweepBits() int { return bits.Len(uint(le.bigR - 1)) }

// SweepScratch is the scratch length BitSweepBlock needs for m points.
func (le *LagrangeEvaluator) SweepScratch(m int) int { return 3*m + 2*le.bigR }

// BitSweepBlock writes the bit-swept vector D(x) of paper Appendix A.5 at
// every point of xs, one row of len(xs) per coordinate:
//
//	dst[j·len(xs)+p] = D_j(xs[p]) = Σ_{i : bit j of i set} Λ_{base+i}(xs[p]),   j < SweepBits().
//
// A grid point comes out as the bit pattern of its position. The other
// points are split into maximal runs of consecutive residues; a run of n
// points shares one window of n+R-1 inverted differences (one field
// inversion per run, not per point), Γ slides along it by
// Γ(x+1) = Γ(x)·(x+1-base)/(x-base-R+1), and coordinate j is
// Γ(x)·Σ_{i∋j} invFixed[i]/(x-point_i): per point R-1 term products and
// SweepBits() scalings, independent of each other and of the other
// points, where At's three passes and inversion are dependent chains.
// Any xs are accepted (descending, repeated, ≥ q); only consecutive ones
// share work.
//
// dst must hold SweepBits()·len(xs) words and scratch
// SweepScratch(len(xs)); the evaluator itself is only read, so calls may
// run concurrently.
func (le *LagrangeEvaluator) BitSweepBlock(dst, xs, scratch []uint64) {
	f, m, bigR := le.f, len(xs), le.bigR
	k := f.Kernel()
	nbits := le.SweepBits()
	dst = dst[:nbits*m]
	clear(dst)
	w := m + bigR - 1
	// The prefix products are dead once a window is inverted; the run's
	// terms reuse their words.
	invBuf, prefix, gamBuf := scratch[:w], scratch[w:2*w], scratch[2*w:2*w+m]
	for p0 := 0; p0 < m; {
		x0 := f.ReduceU(xs[p0])
		if le.onGrid(x0) {
			for j := 0; j < nbits; j++ {
				dst[j*m+p0] = (x0 - le.base) >> uint(j) & 1
			}
			p0++
			continue
		}
		n := le.runLen(xs[p0:], x0, m)
		inv, term, gam := invBuf[:n+bigR-1], prefix[:n], gamBuf[:n]
		gamma := le.window(x0, n, inv, prefix)
		gam[0] = gamma
		for p := 1; p < n; p++ {
			gamma = le.slide(gamma, x0, p, n, inv)
			gam[p] = gamma
		}
		for i := 1; i < bigR; i++ { // position 0 has no bit set
			w, ws := le.invFixed[i], le.invFixedS[i]
			src := inv[i : i+n]
			for p := range term {
				term[p] = reduce2Q(MulShoup(src[n-1-p], w, ws, f.Q), f.Q)
			}
			for b := uint(i); b != 0; b &= b - 1 {
				row := dst[bits.TrailingZeros(b)*m+p0:][:n]
				f.AddVec(row, row, term)
			}
		}
		for j := 0; j < nbits; j++ {
			row := dst[j*m+p0:][:n]
			MulVecK(row, row, gam, k)
		}
		p0 += n
	}
}

// Horner evaluates the polynomial with coefficient slice coeffs
// (coeffs[j] is the coefficient of x^j, canonical) at x, mod q. This is
// the verifier's right-hand side of paper eq. (2): a chain of Shoup
// products by the one fixed x, each step's value kept lazy below 3q and
// reduced once at the end.
func (f Field) Horner(coeffs []uint64, x uint64) uint64 {
	x = f.ReduceU(x)
	xs := ShoupOf(x, f.Q)
	acc := uint64(0)
	for j := len(coeffs) - 1; j >= 0; j-- {
		acc = MulShoup(acc, x, xs, f.Q) + coeffs[j]
	}
	return f.ReduceU(acc)
}
