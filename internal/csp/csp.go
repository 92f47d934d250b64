// Package csp implements the paper's Theorem 12 (Appendix B.1): a Camelot
// algorithm that enumerates the variable assignments of a binary
// constraint system by the number of satisfied constraints, with proof
// size and time O*(σ^{(ω+ε)n/6}). The n variables are split into six
// blocks; for each evaluation point w0 the (6,2)-linear form over the
// matrices χ^{(s,t)}_{a_s,a_t}(w0) = w0^{f^{(s,t)}(a_s,a_t)} equals
// Σ_a w0^{#satisfied(a)}, and interpolation over w0 = 0..m recovers the
// full distribution.
package csp

import (
	"fmt"
	"math/big"
	"math/rand"

	"camelot/internal/cliques"
	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/interp"
	"camelot/internal/matrix"
	"camelot/internal/plan"
	"camelot/internal/tensor"
)

// Constraint is a binary constraint on variables U != V with a σ×σ
// satisfaction table: Allowed[a*σ+b] reports whether (x_U, x_V) = (a, b)
// satisfies it. Weight is the nonnegative integer weight of the paper's
// Remark after Theorem 12 (0 is normalized to 1, the unweighted case);
// the proof size scales with the total weight, exactly as the paper
// states.
type Constraint struct {
	U, V    int
	Weight  int
	Allowed []bool
}

// NormWeight returns the effective weight (zero-value structs count 1).
func (c Constraint) NormWeight() int {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

// System is a 2-CSP over n variables (n divisible by 6) with alphabet
// size σ.
type System struct {
	N, Sigma    int
	Constraints []Constraint
}

// Validate checks shape invariants.
func (s *System) Validate() error {
	if s.N < 6 || s.N%6 != 0 {
		return fmt.Errorf("csp: n = %d must be a positive multiple of 6", s.N)
	}
	if s.Sigma < 2 {
		return fmt.Errorf("csp: alphabet size %d too small", s.Sigma)
	}
	for i, c := range s.Constraints {
		if c.U < 0 || c.U >= s.N || c.V < 0 || c.V >= s.N || c.U == c.V {
			return fmt.Errorf("csp: constraint %d has bad variables (%d, %d)", i, c.U, c.V)
		}
		if c.Weight < 0 {
			return fmt.Errorf("csp: constraint %d has negative weight %d", i, c.Weight)
		}
		if len(c.Allowed) != s.Sigma*s.Sigma {
			return fmt.Errorf("csp: constraint %d table has %d entries, want %d", i, len(c.Allowed), s.Sigma*s.Sigma)
		}
	}
	return nil
}

// TotalWeight returns Σ effective constraint weights W — the maximum
// achievable satisfied weight, which drives proof width and degree.
func (s *System) TotalWeight() int {
	w := 0
	for _, c := range s.Constraints {
		w += c.NormWeight()
	}
	return w
}

// Problem is the Camelot 2-CSP enumeration problem. Coordinate w0 of the
// width-(m+1) proof carries the (6,2)-form proof polynomial for the
// evaluation X(w0); all coordinates share the interpolated tensor
// coefficient matrices per point.
type Problem struct {
	sys *System
	// blockSize = n/6 variables per block; nAssign = σ^{n/6} assignments.
	blockSize, nAssign int
	// fType[pairIndex(s,t)] is the nAssign×nAssign matrix of satisfied
	// type-(s,t) constraint counts.
	fType       [15][]int
	dc          tensor.Decomposition
	padN        int
	totalWeight int
}

var (
	_ core.Problem         = (*Problem)(nil)
	_ core.CompiledProblem = (*Problem)(nil)
)

// pairIndex enumerates the 15 pairs (s, t), 0-based s < t < 6.
func pairIndex(s, t int) int {
	// Row-major upper triangle: offset(s) + (t - s - 1).
	off := [6]int{0, 5, 9, 12, 14, 15}
	return off[s] + t - s - 1
}

// NewProblem builds the Theorem 12 problem over the given base tensor
// decomposition.
func NewProblem(sys *System, base tensor.Decomposition) (*Problem, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	bs := sys.N / 6
	nAssign := 1
	for i := 0; i < bs; i++ {
		nAssign *= sys.Sigma
		if nAssign > 4096 {
			return nil, fmt.Errorf("csp: σ^{n/6} = %d too large", nAssign)
		}
	}
	p := &Problem{sys: sys, blockSize: bs, nAssign: nAssign, totalWeight: sys.TotalWeight()}
	for i := range p.fType {
		p.fType[i] = make([]int, nAssign*nAssign)
	}
	// Classify constraints into types and accumulate satisfaction counts.
	for _, c := range sys.Constraints {
		b1, b2 := c.U/bs, c.V/bs
		s, t := constraintType(b1, b2)
		idx := pairIndex(s, t)
		// Decode variable values from block-assignment indices: variable
		// v in block b has digit position v-b*bs (little-endian base σ).
		for as := 0; as < nAssign; as++ {
			for at := 0; at < nAssign; at++ {
				va := valueOf(p, c.U, b1, s, t, as, at)
				vb := valueOf(p, c.V, b2, s, t, as, at)
				if c.Allowed[va*sys.Sigma+vb] {
					p.fType[idx][as*nAssign+at] += c.NormWeight()
				}
			}
		}
	}
	dc, padN := base.ForSize(nAssign)
	p.dc = dc
	p.padN = padN
	return p, nil
}

// constraintType returns the lexicographically least 0-based pair (s, t)
// with both endpoint blocks contained in {s, t} (paper Appendix B.1).
func constraintType(b1, b2 int) (int, int) {
	if b1 > b2 {
		b1, b2 = b2, b1
	}
	if b1 == b2 {
		if b1 == 0 {
			return 0, 1
		}
		return 0, b1
	}
	return b1, b2
}

// valueOf extracts variable v's value given its block b and the
// assignments (as to block s, at to block t).
func valueOf(p *Problem, v, b, s, t, as, at int) int {
	assign := as
	if b == t {
		assign = at
	}
	digit := v - b*p.blockSize
	for i := 0; i < digit; i++ {
		assign /= p.sys.Sigma
	}
	return assign % p.sys.Sigma
}

// Name implements core.Problem.
func (p *Problem) Name() string {
	return fmt.Sprintf("2csp-enumerate(n=%d,σ=%d,m=%d)", p.sys.N, p.sys.Sigma, len(p.sys.Constraints))
}

// Width implements core.Problem: one coordinate per weight point
// w0 = 0..W (W = total constraint weight; W = m when unweighted).
func (p *Problem) Width() int { return p.totalWeight + 1 }

// Degree implements core.Problem.
func (p *Problem) Degree() int { return 3 * (p.dc.R() - 1) }

// MinModulus implements core.Problem.
func (p *Problem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(3*p.dc.R() + 1))
}

// Bound returns σ^n·W^W, an upper bound on X(w0) over the grid
// w0 = 0..W.
func (p *Problem) Bound() *big.Int {
	w := p.totalWeight
	b := new(big.Int).Exp(big.NewInt(int64(p.sys.Sigma)), big.NewInt(int64(p.sys.N)), nil)
	if w > 0 {
		b.Mul(b, new(big.Int).Exp(big.NewInt(int64(w)), big.NewInt(int64(w)), nil))
	}
	return b
}

// NumPrimes implements core.Problem.
func (p *Problem) NumPrimes() int {
	return crt.PrimesFor(p.Bound().BitLen(), p.MinModulus())
}

// formsFor builds the m+1 forms over the field, one per w0: the
// per-prime setup that Compile does once and Evaluate per call.
func (p *Problem) formsFor(f ff.Field) ([]*cliques.Form, error) {
	q := f.Q
	w := p.totalWeight
	fs := make([]*cliques.Form, w+1)
	for w0 := 0; w0 <= w; w0++ {
		// Powers of w0 up to the maximum satisfied weight W.
		pow := make([]uint64, w+1)
		pow[0] = 1 % q
		for i := 1; i <= w; i++ {
			pow[i] = f.Mul(pow[i-1], uint64(w0)%q)
		}
		mats := make([]*matrix.Matrix, 15)
		for idx := 0; idx < 15; idx++ {
			mm := matrix.New(f, p.padN, p.padN)
			for a := 0; a < p.nAssign; a++ {
				for b := 0; b < p.nAssign; b++ {
					mm.Set(a, b, pow[p.fType[idx][a*p.nAssign+b]])
				}
			}
			mats[idx] = mm
		}
		form, err := cliques.NewForm(f, p.padN, func(s, t int) *matrix.Matrix {
			return mats[pairIndex(s-1, t-1)]
		})
		if err != nil {
			return nil, err
		}
		fs[w0] = form
	}
	return fs, nil
}

// Evaluate implements core.Problem: the tensor coefficient matrices at
// x0, each from its own one-shot Lagrange basis, combined through each
// w0's form.
func (p *Problem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	fs, err := p.formsFor(f)
	if err != nil {
		return nil, err
	}
	return combineAll(fs, p.dc.AlphaMatrixAtPoint(f, x0), p.dc.BetaMatrixAtPoint(f, x0), p.dc.GammaMatrixAtPoint(f, x0))
}

// combineAll is the row (P_0(x0), ..., P_W(x0)) given the coefficient
// matrices at x0.
func combineAll(fs []*cliques.Form, alpha, beta, gamma *matrix.Matrix) ([]uint64, error) {
	row := make([]uint64, len(fs))
	for w0, form := range fs {
		v, err := form.Combine(alpha, beta, gamma)
		if err != nil {
			return nil, err
		}
		row[w0] = v
	}
	return row, nil
}

// compiled is the 2-CSP Plan for one prime: the W+1 forms (each a set
// of 15 interpolated coefficient matrices) are built once at compile
// time; each block shares one tensor point-evaluator across its points,
// and Form.Combine allocates its intermediates per call, so one plan
// serves concurrent chunk tasks.
type compiled struct {
	p  *Problem
	f  ff.Field
	fs []*cliques.Form
}

// Compile implements plan.Compiler: the form build compiles once, and a
// block's coefficient matrices come from one tensor point-evaluator,
// whose Lagrange setup amortizes across the block.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) {
	fs, err := p.formsFor(f)
	if err != nil {
		return nil, err
	}
	return &compiled{p: p, f: f, fs: fs}, nil
}

// EvaluateBlock implements plan.Plan.
func (c *compiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	out := make([][]uint64, len(xs))
	err := c.p.dc.NewPointEvaluator(c.f).Sweep(xs, func(xi int, alpha, beta, gamma *matrix.Matrix) (err error) {
		out[xi], err = combineAll(c.fs, alpha, beta, gamma)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Distribution recovers N_k (the number of assignments satisfying
// exactly k constraints) for k = 0..m: X(w0) = Σ_{r=1..R} P_{w0}(r) per
// modulus, CRT, then integer interpolation over w0 = 0..m. (Padded
// χ cells are zero, so phantom assignments never contribute.)
func (p *Problem) Distribution(proof *core.Proof) ([]*big.Int, error) {
	m := p.totalWeight
	r := uint64(p.dc.R())
	xvals := make([]*big.Int, m+1)
	for w0 := 0; w0 <= m; w0++ {
		v, err := crt.Reconstruct(proof.SumRanges(w0, 1, r+1), proof.Primes)
		if err != nil {
			return nil, fmt.Errorf("csp: w0=%d: %w", w0, err)
		}
		xvals[w0] = v
	}
	points := make([]int64, m+1)
	for i := range points {
		points[i] = int64(i)
	}
	coeffs, err := interp.LagrangeInt(points, xvals)
	if err != nil {
		return nil, fmt.Errorf("csp: %w", err)
	}
	// Coefficient of w^k is N_k (assignments of satisfied weight k).
	out := make([]*big.Int, m+1)
	for k := range out {
		if k < len(coeffs) {
			out[k] = coeffs[k]
		} else {
			out[k] = big.NewInt(0)
		}
	}
	return out, nil
}

// DistributionBrute enumerates all σ^n assignments — the ground truth.
// Index k of the result is the number of assignments with satisfied
// weight exactly k.
func DistributionBrute(sys *System) []*big.Int {
	m := sys.TotalWeight()
	out := make([]*big.Int, m+1)
	for k := range out {
		out[k] = big.NewInt(0)
	}
	assign := make([]int, sys.N)
	one := big.NewInt(1)
	var rec func(v int)
	rec = func(v int) {
		if v == sys.N {
			k := 0
			for _, c := range sys.Constraints {
				if c.Allowed[assign[c.U]*sys.Sigma+assign[c.V]] {
					k += c.NormWeight()
				}
			}
			out[k].Add(out[k], one)
			return
		}
		for a := 0; a < sys.Sigma; a++ {
			assign[v] = a
			rec(v + 1)
		}
	}
	rec(0)
	return out
}

// RandomSystem draws m random binary constraints with the given
// satisfaction density, for experiments and workload specs (none over
// fewer than two variables, where no constraint has a pair to bind).
func RandomSystem(n, sigma, m int, density float64, seed int64) *System {
	rng := newRng(seed)
	sys := &System{N: n, Sigma: sigma}
	if n < 2 || m < 0 || sigma < 0 {
		return sys
	}
	sys.Constraints = make([]Constraint, m)
	for i := range sys.Constraints {
		u := rng.Intn(n)
		v := rng.Intn(n)
		for v == u {
			v = rng.Intn(n)
		}
		table := make([]bool, sigma*sigma)
		for j := range table {
			table[j] = rng.Float64() < density
		}
		sys.Constraints[i] = Constraint{U: u, V: v, Allowed: table}
	}
	return sys
}

// newRng isolates the math/rand dependency.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
