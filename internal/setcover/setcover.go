// Package setcover implements the paper's set-cover counting results:
// Theorem 9 (number of t-element set covers from a small family, via the
// inclusion–exclusion proof polynomial of Appendix A.6) and Theorem 10
// (number of t-element exact covers / set partitions from a family of up
// to O*(2^{n/2}) sets, via the §7/§8 partitioning template).
package setcover

import (
	"fmt"
	"math/big"
	"math/bits"

	"camelot/internal/bipoly"
	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/partition"
	"camelot/internal/plan"
	"camelot/internal/yates"
)

// validateFamily checks the family masks fit the universe and, when
// forbidEmpty is set, excludes the empty set (degenerate for exact
// covers, paper footnote 20).
func validateFamily(family []uint64, n int, forbidEmpty bool) error {
	if n < 1 || n > 62 {
		return fmt.Errorf("setcover: universe size %d out of range [1, 62]", n)
	}
	full := uint64(1)<<uint(n) - 1
	for i, x := range family {
		if x&^full != 0 {
			return fmt.Errorf("setcover: set %d (%b) leaves the universe", i, x)
		}
		if forbidEmpty && x == 0 {
			return fmt.Errorf("setcover: set %d is empty", i)
		}
	}
	return nil
}

// --- Theorem 10: exact covers via the partitioning template -----------------

// ExactCoverProblem counts ordered t-tuples (X_1..X_t) of family members
// that partition the universe (each element covered exactly once). The
// number of unordered set partitions is the tuple count divided by t!.
type ExactCoverProblem struct {
	family []uint64
	n, t   int
	split  partition.Split
}

var _ core.Problem = (*ExactCoverProblem)(nil)
var _ core.CompiledProblem = (*ExactCoverProblem)(nil)

// NewExactCoverProblem builds the Theorem 10 Camelot problem.
func NewExactCoverProblem(family []uint64, n, t int) (*ExactCoverProblem, error) {
	if err := validateFamily(family, n, true); err != nil {
		return nil, err
	}
	if t < 1 || t > n {
		return nil, fmt.Errorf("setcover: t = %d out of range [1, %d]", t, n)
	}
	return &ExactCoverProblem{family: family, n: n, t: t, split: partition.Balanced(n)}, nil
}

// Name implements core.Problem.
func (p *ExactCoverProblem) Name() string {
	return fmt.Sprintf("exact-covers(n=%d,|F|=%d,t=%d)", p.n, len(p.family), p.t)
}

// Width implements core.Problem.
func (p *ExactCoverProblem) Width() int { return 1 }

// Degree implements core.Problem: |B|·2^{|B|-1} per §7.2.
func (p *ExactCoverProblem) Degree() int { return p.split.Degree() }

// MinModulus implements core.Problem: above the proof degree, raised to
// the word-sized floor every problem shares (crt.FloorModulus).
func (p *ExactCoverProblem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(p.split.Degree()) + 2)
}

// NumPrimes implements core.Problem: tuple count <= |F|^t.
func (p *ExactCoverProblem) NumPrimes() int {
	bound := new(big.Int).Exp(big.NewInt(int64(len(p.family))+1), big.NewInt(int64(p.t)), nil)
	return crt.PrimesFor(bound.BitLen(), p.MinModulus())
}

// Evaluate implements core.Problem: the compiled plan at one point.
func (p *ExactCoverProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	v, err := p.at(p.split.Ring(f), x0)
	if err != nil {
		return nil, err
	}
	return []uint64{v}, nil
}

// at is P(x0): the §8.2 node function — every family set scattered into
// g0[X∩E] with its bivariate weight and Kronecker x0-power, then a zeta
// transform over the E-lattice, time O*(2^{|E|} + |F|) — through the
// template's sum-product.
func (p *ExactCoverProblem) at(ring bipoly.Ring, x0 uint64) (uint64, error) {
	ne := len(p.split.E)
	eFull := uint64(1)<<uint(ne) - 1
	xp := p.split.NewXPowers(ring.F, x0)
	g := make([]bipoly.Poly, 1<<uint(ne))
	for _, x := range p.family {
		eMask := x & eFull
		bMask := x >> uint(ne)
		mono := ring.Monomial(bits.OnesCount64(eMask), bits.OnesCount64(bMask), xp.ForMask(bMask))
		g[eMask] = ring.AddInPlace(g[eMask], mono)
	}
	yates.Zeta(ne, g, ring.AddInPlace)
	vals, err := p.split.EvaluateAll(ring, g, p.t)
	if err != nil {
		return 0, err
	}
	return vals[p.t-1], nil
}

// exactCompiled is the ExactCoverProblem Plan for one prime: the ring,
// bound once. Every per-point structure (x0 powers, the scatter
// lattice) is allocated inside at, so one plan serves concurrent chunk
// tasks.
type exactCompiled struct {
	p    *ExactCoverProblem
	ring bipoly.Ring
}

// Compile implements plan.Compiler.
func (p *ExactCoverProblem) Compile(f ff.Field) (plan.Plan, error) {
	return &exactCompiled{p: p, ring: p.split.Ring(f)}, nil
}

// EvaluateBlock implements plan.Plan.
func (c *exactCompiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	vals := make([]uint64, len(xs))
	for i, x0 := range xs {
		v, err := c.p.at(c.ring, x0)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return plan.Rows(vals, 1), nil
}

// RecoverTuples extracts the ordered-tuple count: it is the coefficient
// p_{2^{|B|}-1} of the decoded proof, CRT'd over the primes.
func (p *ExactCoverProblem) RecoverTuples(proof *core.Proof) (*big.Int, error) {
	idx := p.split.TargetIndex()
	return crt.Reconstruct(proof.CoeffResidues(0, idx), proof.Primes)
}

// RecoverPartitions divides the tuple count by t!.
func (p *ExactCoverProblem) RecoverPartitions(proof *core.Proof) (*big.Int, error) {
	tuples, err := p.RecoverTuples(proof)
	if err != nil {
		return nil, err
	}
	fact := new(big.Int).MulRange(1, int64(p.t))
	quo, rem := new(big.Int).QuoRem(tuples, fact, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("setcover: tuple count %v not divisible by %d! — proof inconsistent", tuples, p.t)
	}
	return quo, nil
}

// --- Theorem 9: covers via inclusion–exclusion (Appendix A.6) ---------------

// CoverProblem counts ordered t-tuples (X_1..X_t) of family members whose
// union is the universe (elements may be covered repeatedly). The proof
// polynomial is P(x) = F_t(D(x)) of eq. (45)/(46): D(x) sweeps the
// Boolean cube of the first half of the inclusion–exclusion variables.
type CoverProblem struct {
	family []uint64
	n, t   int
	// n1 is the number of D(x)-interpolated variables (2^{n1} grid).
	n1, n2 int
	// suffixes is the modulus- and point-independent suffix plan used by
	// the compiled block path, built once at construction; Evaluate
	// stays self-contained.
	suffixes coverPlan
}

// coverPlan is the x0- and q-independent structure of the 2^{n2} suffix
// sweep in eq. (46): for each assignment of the last n2 indicator
// variables, only family sets whose high part is contained in the suffix
// contribute a nonzero product, and the suffix's own (1-2y_j) factors
// collapse to (-1)^bits.OnesCount64(suffix).
type coverPlan struct {
	// prefixes[suffix] lists, in family order, the low-n1-bit masks of
	// the sets surviving that suffix.
	prefixes [][]uint64
	// negate[suffix] reports whether bits.OnesCount64(suffix) is odd, i.e.
	// whether the suffix flips the sign of the term.
	negate []bool
}

func (p *CoverProblem) buildPlan() {
	nSuffix := 1 << uint(p.n2)
	prefixes := make([][]uint64, nSuffix)
	negate := make([]bool, nSuffix)
	low := uint64(1)<<uint(p.n1) - 1
	for suffix := uint64(0); suffix < uint64(nSuffix); suffix++ {
		var surv []uint64
		for _, x := range p.family {
			if x>>uint(p.n1)&^suffix == 0 {
				surv = append(surv, x&low)
			}
		}
		prefixes[suffix] = surv
		negate[suffix] = bits.OnesCount64(suffix)%2 == 1
	}
	p.suffixes = coverPlan{prefixes: prefixes, negate: negate}
}

var _ core.Problem = (*CoverProblem)(nil)
var _ core.CompiledProblem = (*CoverProblem)(nil)

// NewCoverProblem builds the Theorem 9 Camelot problem.
func NewCoverProblem(family []uint64, n, t int) (*CoverProblem, error) {
	if err := validateFamily(family, n, false); err != nil {
		return nil, err
	}
	if t < 1 {
		return nil, fmt.Errorf("setcover: t = %d must be positive", t)
	}
	n1 := (n + 1) / 2
	p := &CoverProblem{family: family, n: n, t: t, n1: n1, n2: n - n1}
	p.buildPlan()
	return p, nil
}

// Name implements core.Problem.
func (p *CoverProblem) Name() string {
	return fmt.Sprintf("covers(n=%d,|F|=%d,t=%d)", p.n, len(p.family), p.t)
}

// Width implements core.Problem.
func (p *CoverProblem) Width() int { return 1 }

// Degree implements core.Problem: deg D_j <= 2^{n1}-1 composed with the
// total degree (1+t)·n1 of F_t in its n1 arguments (Appendix A.6).
func (p *CoverProblem) Degree() int {
	return (1<<uint(p.n1) - 1) * (1 + p.t) * p.n1
}

// MinModulus implements core.Problem: the Lagrange grid needs q > 2^{n1},
// raised to the word-sized floor every problem shares (crt.FloorModulus).
func (p *CoverProblem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(1)<<uint(p.n1) + 1)
}

// NumPrimes implements core.Problem: cover count <= |F|^t.
func (p *CoverProblem) NumPrimes() int {
	bound := new(big.Int).Exp(big.NewInt(int64(len(p.family))+1), big.NewInt(int64(p.t)), nil)
	return crt.PrimesFor(bound.BitLen(), p.MinModulus())
}

// Evaluate implements core.Problem: P(x0) = F_t(D(x0)) per eq. (45).
func (p *CoverProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	// D_j(x0) = Σ_{i: bit j of i set} Φ_i(x0) over the grid 0..2^{n1}-1.
	y := make([]uint64, p.n)
	copy(y, f.BitSweepAt(p.n1, x0))
	total := uint64(0)
	for suffix := uint64(0); suffix < 1<<uint(p.n2); suffix++ {
		for j := 0; j < p.n2; j++ {
			y[p.n1+j] = (suffix >> uint(j)) & 1
		}
		// sign = (-1)^n Π_j (1-2y_j)
		sign := uint64(1)
		if p.n%2 == 1 {
			sign = f.Neg(sign)
		}
		for j := 0; j < p.n; j++ {
			sign = f.Mul(sign, f.Sub(1, f.Mul(2%f.Q, y[j])))
		}
		if sign == 0 {
			continue
		}
		// inner = Σ_{X∈F} Π_{j∈X} y_j
		inner := uint64(0)
		for _, x := range p.family {
			prod := uint64(1)
			for m := x; m != 0 && prod != 0; {
				j := bits.TrailingZeros64(m)
				m &= m - 1
				prod = f.Mul(prod, y[j])
			}
			inner = f.Add(inner, prod)
		}
		total = f.Add(total, f.Mul(sign, f.Exp(inner, uint64(p.t))))
	}
	return []uint64{total}, nil
}

// coverCompiled is the CoverProblem Plan for one prime. The suffix plan
// is construction-time state on the problem and the Lagrange evaluator's
// fixed factors are built at Compile; both are only read by
// EvaluateBlock, whose scratch is per call.
type coverCompiled struct {
	p  *CoverProblem
	f  ff.Field
	le *ff.LagrangeEvaluator // grid 0..2^{n1}-1
}

// Compile implements plan.Compiler. The compiled path produces
// bit-identical rows to Evaluate (exact modular arithmetic: dropping
// the zero products of non-surviving sets and the unit factors of
// suffix variables set to 1 cannot change any value) while amortizing
// two costs across each block: D(x), which ff's run kernel computes
// with one window of inverted differences per run of consecutive
// points, and the per-suffix family filtering, which the
// construction-time coverPlan hoists out of the per-point loop
// entirely.
func (p *CoverProblem) Compile(f ff.Field) (plan.Plan, error) {
	return &coverCompiled{p: p, f: f, le: f.NewLagrangeEvaluatorZeroBased(1 << uint(p.n1))}, nil
}

// EvaluateBlock implements plan.Plan.
func (c *coverCompiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	p, f, m := c.p, c.f, len(xs)
	// ys[j·m+xi] = D_j(x_xi) for the first n1 variables; signs holds the
	// fixed part of the sign, (-1)^n Π_{j<n1}(1-2y_j).
	ys := make([]uint64, p.n1*m)
	c.le.BitSweepBlock(ys, xs, make([]uint64, c.le.SweepScratch(m)))
	signs := make([]uint64, m)
	for xi := range signs {
		sign := uint64(1)
		if p.n%2 == 1 {
			sign = f.Neg(sign)
		}
		for j := 0; j < p.n1; j++ {
			sign = f.Mul(sign, f.Sub(1, f.Mul(2%f.Q, ys[j*m+xi])))
		}
		signs[xi] = sign
	}
	totals := make([]uint64, m)
	for suffix, surv := range p.suffixes.prefixes {
		for xi := range xs {
			sign := signs[xi]
			if sign == 0 {
				continue
			}
			if p.suffixes.negate[suffix] {
				sign = f.Neg(sign)
			}
			inner := uint64(0)
			for _, pm := range surv {
				prod := uint64(1)
				for b := pm; b != 0 && prod != 0; b &= b - 1 {
					prod = f.Mul(prod, ys[bits.TrailingZeros64(b)*m+xi])
				}
				inner = f.Add(inner, prod)
			}
			totals[xi] = f.Add(totals[xi], f.Mul(sign, f.Exp(inner, uint64(p.t))))
		}
	}
	return plan.Rows(totals, 1), nil
}

// RecoverCovers extracts the cover count: c_t = Σ_{i=0}^{2^{n1}-1} P(i)
// per modulus, then CRT.
func (p *CoverProblem) RecoverCovers(proof *core.Proof) (*big.Int, error) {
	return crt.Reconstruct(proof.SumRanges(0, 0, uint64(1)<<uint(p.n1)), proof.Primes)
}

// --- Sequential baselines ----------------------------------------------------

// CountCoversBrute counts ordered covering t-tuples by explicit
// enumeration: O(|F|^t), ground truth for tiny inputs.
func CountCoversBrute(family []uint64, n, t int) *big.Int {
	full := uint64(1)<<uint(n) - 1
	count := big.NewInt(0)
	one := big.NewInt(1)
	var rec func(depth int, acc uint64)
	rec = func(depth int, acc uint64) {
		if depth == t {
			if acc == full {
				count.Add(count, one)
			}
			return
		}
		for _, x := range family {
			rec(depth+1, acc|x)
		}
	}
	rec(0, 0)
	return count
}

// CountExactCoversBrute counts ordered disjoint covering t-tuples by
// enumeration.
func CountExactCoversBrute(family []uint64, n, t int) *big.Int {
	full := uint64(1)<<uint(n) - 1
	count := big.NewInt(0)
	one := big.NewInt(1)
	var rec func(depth int, acc uint64)
	rec = func(depth int, acc uint64) {
		if depth == t {
			if acc == full {
				count.Add(count, one)
			}
			return
		}
		for _, x := range family {
			if acc&x == 0 {
				rec(depth+1, acc|x)
			}
		}
	}
	rec(0, 0)
	return count
}

// CountCoversIE counts ordered covering t-tuples with the sequential
// inclusion–exclusion formula c_t = Σ_Y (-1)^{n-|Y|} |{X⊆Y}|^t over all
// 2^n subsets (paper [7]): the baseline the Camelot design halves the
// exponent of.
func CountCoversIE(family []uint64, n, t int) *big.Int {
	size := 1 << uint(n)
	sub := make([]*big.Int, size)
	for i := range sub {
		sub[i] = big.NewInt(0)
	}
	one := big.NewInt(1)
	for _, x := range family {
		sub[x].Add(sub[x], one)
	}
	yates.Zeta(n, sub, func(dst, src *big.Int) *big.Int { return dst.Add(dst, src) })
	total := big.NewInt(0)
	tt := big.NewInt(int64(t))
	for y := 0; y < size; y++ {
		term := new(big.Int).Exp(sub[y], tt, nil)
		if (n-bits.OnesCount64(uint64(y)))%2 == 1 {
			total.Sub(total, term)
		} else {
			total.Add(total, term)
		}
	}
	return total
}
