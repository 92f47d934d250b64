// Package orthvec implements the paper's Theorem 11(1) and 11(2): Camelot
// algorithms with proof size and time Õ(nt^c) for counting orthogonal
// pairs among Boolean vectors (c = 1) and for the full Hamming distance
// distribution (c = 2). The proof polynomials compose column-interpolating
// polynomials A_j(x) with a multivariate combination indicator (Appendix
// A.1 and A.3).
package orthvec

import (
	"bytes"
	"fmt"
	"math/big"
	"slices"

	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/plan"
)

// BoolMatrix is an n×t 0/1 matrix, rows are vectors.
type BoolMatrix struct {
	N, T int
	Bits []uint8 // row-major
}

// NewBoolMatrix validates dimensions and entries.
func NewBoolMatrix(n, t int, bits []uint8) (*BoolMatrix, error) {
	if n < 1 || t < 1 || len(bits) != n*t {
		return nil, fmt.Errorf("orthvec: bad matrix shape n=%d t=%d len=%d", n, t, len(bits))
	}
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("orthvec: entry %d = %d not Boolean", i, b)
		}
	}
	return &BoolMatrix{N: n, T: t, Bits: bits}, nil
}

// At returns entry (i, j), 0-based.
func (m *BoolMatrix) At(i, j int) uint8 { return m.Bits[i*m.T+j] }

// --- Theorem 11(1): orthogonal vectors --------------------------------------

// OVProblem counts, for each row i of A, the rows of B orthogonal to it:
// c_i = |{k : Σ_j a_ij b_kj = 0}|. The proof polynomial (Appendix A.1) is
// P(x) = Σ_k Π_j (1 - b_kj A_j(x)) with A_j interpolating column j of A
// over the points 1..n, so P(i) = c_i.
type OVProblem struct {
	a, b *BoolMatrix
	// maxOnes is max_k |b_k|, the most factors any summand of P has.
	maxOnes int
}

var (
	_ core.Problem         = (*OVProblem)(nil)
	_ core.CompiledProblem = (*OVProblem)(nil)
)

// NewOVProblem builds the problem for equal-width matrices.
func NewOVProblem(a, b *BoolMatrix) (*OVProblem, error) {
	if a.T != b.T {
		return nil, fmt.Errorf("orthvec: dimension mismatch t=%d vs %d", a.T, b.T)
	}
	maxOnes := 0
	for row := range slices.Chunk(b.Bits, b.T) {
		maxOnes = max(maxOnes, bytes.Count(row, []byte{1}))
	}
	return &OVProblem{a: a, b: b, maxOnes: maxOnes}, nil
}

// Name implements core.Problem.
func (p *OVProblem) Name() string { return fmt.Sprintf("orthogonal-vectors(n=%d,t=%d)", p.a.N, p.a.T) }

// Width implements core.Problem.
func (p *OVProblem) Width() int { return 1 }

// Degree implements core.Problem: the summand of row k of B is a product
// over the set bits of b_k, each factor 1 - A_j(x) of degree <= n-1, so
// P has degree <= (n-1)·max_k |b_k|. A B with no set bit makes P the
// constant n(B); it is declared at n-1 all the same, one factor's degree.
func (p *OVProblem) Degree() int { return (p.a.N - 1) * max(1, p.maxOnes) }

// MinModulus implements core.Problem: q must exceed the recovery grid and
// the counts c_i <= n(B), so one prime at the shared floor
// (crt.FloorModulus) suffices.
func (p *OVProblem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(max(p.a.N, p.b.N) + 1))
}

// NumPrimes implements core.Problem: c_i <= n < q, one prime suffices.
func (p *OVProblem) NumPrimes() int { return 1 }

// Evaluate implements core.Problem: Õ(nt) per point, from a one-shot
// Lagrange basis.
func (p *OVProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	return []uint64{p.at(f, f.LagrangeAtOneBased(p.a.N, x0), make([]uint64, 2*p.a.T))}, nil
}

// at is P(x0) given lam, the Lagrange basis over 1..n at x0; scratch is
// 2t words.
func (p *OVProblem) at(f ff.Field, lam, scratch []uint64) uint64 {
	// A_j(x0) = Σ_i a_ij Λ_{i+1}(x0).
	acol, acolS := scratch[:p.a.T], scratch[p.a.T:2*p.a.T]
	clear(acol)
	for i := 0; i < p.a.N; i++ {
		if lam[i] == 0 {
			continue
		}
		row := p.a.Bits[i*p.a.T:]
		for j := 0; j < p.a.T; j++ {
			if row[j] == 1 {
				acol[j] = f.Add(acol[j], lam[i])
			}
		}
	}
	// The per-row product multiplies by (1 - A_j(x0)) for each set bit;
	// hoist the t complements and their ShoupOf companions out of the
	// n-row sweep. The product stays lazy below 2q and is exactly 0 once
	// it meets a zero complement.
	q := f.Q
	for j, v := range acol {
		acol[j] = f.Sub(1, v)
		acolS[j] = ff.ShoupOf(acol[j], q)
	}
	total := uint64(0)
	for r := 0; r < p.b.N; r++ {
		row := p.b.Bits[r*p.b.T:]
		prod := uint64(1)
		for j := 0; j < p.b.T && prod != 0; j++ {
			if row[j] == 1 {
				prod = ff.MulShoup(prod, acol[j], acolS[j], q)
			}
		}
		total = f.Add(total, f.ReduceU(prod))
	}
	return total
}

// sweepPlan is the Plan of both problems of this package for one prime.
// A block's Lagrange bases come from one run kernel
// (ff.LagrangeEvaluator.Sweep), which builds its factorial and
// denominator tables once per block and inverts differences once per
// run of consecutive points; each basis then goes through the problem's
// at, the formula Evaluate runs on its one-shot basis. The evaluator and
// at's scratch are per call, so one plan serves concurrent chunk tasks.
type sweepPlan struct {
	f ff.Field
	// basis is f's one- or zero-based evaluator constructor for grid.
	basis   func(grid int) *ff.LagrangeEvaluator
	grid    int
	scratch int // words of scratch at needs
	at      func(f ff.Field, lam, scratch []uint64) uint64
}

// EvaluateBlock implements plan.Plan.
func (c sweepPlan) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	scratch := make([]uint64, c.scratch)
	vals := make([]uint64, len(xs))
	c.basis(c.grid).Sweep(xs, func(xi int, lam []uint64) { vals[xi] = c.at(c.f, lam, scratch) })
	return plan.Rows(vals, 1), nil
}

// Compile implements plan.Compiler.
func (p *OVProblem) Compile(f ff.Field) (plan.Plan, error) {
	return sweepPlan{f: f, basis: f.NewLagrangeEvaluatorOneBased, grid: p.a.N, scratch: 2 * p.a.T, at: p.at}, nil
}

// Counts recovers (c_1, ..., c_n) from the proof: c_i = P(i).
func (p *OVProblem) Counts(proof *core.Proof) ([]int64, error) {
	q := proof.Primes[0]
	out := make([]int64, p.a.N)
	for i := 1; i <= p.a.N; i++ {
		v := proof.Eval(q, 0, uint64(i))
		if v > uint64(p.b.N) {
			return nil, fmt.Errorf("orthvec: c_%d = %d exceeds row count %d — proof inconsistent", i, v, p.b.N)
		}
		out[i-1] = int64(v)
	}
	return out, nil
}

// TotalPairs recovers Σ_i c_i as a big integer (the #CNFSAT reduction's
// quantity of interest).
func (p *OVProblem) TotalPairs(proof *core.Proof) (*big.Int, error) {
	counts, err := p.Counts(proof)
	if err != nil {
		return nil, err
	}
	total := new(big.Int)
	for _, c := range counts {
		total.Add(total, big.NewInt(c))
	}
	return total, nil
}

// CountOrthogonalNaive is the O(n²t) reference.
func CountOrthogonalNaive(a, b *BoolMatrix) []int64 {
	out := make([]int64, a.N)
	for i := 0; i < a.N; i++ {
		for k := 0; k < b.N; k++ {
			dot := 0
			for j := 0; j < a.T; j++ {
				dot += int(a.At(i, j)) * int(b.At(k, j))
			}
			if dot == 0 {
				out[i]++
			}
		}
	}
	return out
}

// --- Theorem 11(2): Hamming distance distribution ---------------------------

// HammingProblem counts, for each row i of A and each distance h in
// [0, t], the rows of B at Hamming distance exactly h: c_ih. The proof
// polynomial (Appendix A.3) lives on the grid x = i(t+1)+h and uses t
// root-supplying polynomials H_ℓ alongside the column interpolants, so
// that P(i(t+1)+h) = (Π_{ℓ≠h}(h-ℓ)) · c_ih.
type HammingProblem struct {
	a, b *BoolMatrix
	// grid is (N+1)(t+1): row index 0 is a dummy row so the grid points
	// are the consecutive integers 0..grid-1 (enabling the O(grid)
	// Lagrange kernel).
	grid int
}

var (
	_ core.Problem         = (*HammingProblem)(nil)
	_ core.CompiledProblem = (*HammingProblem)(nil)
)

// NewHammingProblem builds the problem.
func NewHammingProblem(a, b *BoolMatrix) (*HammingProblem, error) {
	if a.T != b.T {
		return nil, fmt.Errorf("orthvec: dimension mismatch t=%d vs %d", a.T, b.T)
	}
	return &HammingProblem{a: a, b: b, grid: (a.N + 1) * (a.T + 1)}, nil
}

// Name implements core.Problem.
func (p *HammingProblem) Name() string {
	return fmt.Sprintf("hamming-distribution(n=%d,t=%d)", p.a.N, p.a.T)
}

// Width implements core.Problem.
func (p *HammingProblem) Width() int { return 1 }

// Degree implements core.Problem: the t+1 product factors each carry one
// grid-degree interpolant: (t+1)·(grid-1) is a safe bound (t factors of
// (dist - H_ℓ) where dist and H_ℓ have degree grid-1).
func (p *HammingProblem) Degree() int { return (p.a.T + 1) * (p.grid - 1) }

// MinModulus implements core.Problem: the factorial Π_{ℓ≠h}(h-ℓ) <= t!
// must be invertible and counts c_ih <= n must be recoverable, so one
// prime at the shared floor (crt.FloorModulus) suffices.
func (p *HammingProblem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(max(p.grid, p.b.N) + 1))
}

// NumPrimes implements core.Problem.
func (p *HammingProblem) NumPrimes() int { return 1 }

// Evaluate implements core.Problem: Õ(nt²) per point, from a one-shot
// Lagrange basis.
func (p *HammingProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	return []uint64{p.at(f, f.LagrangeAtZeroBased(p.grid, x0), make([]uint64, 2*p.a.T))}, nil
}

// at is P(x0) given phi, the Lagrange basis over the grid 0..grid-1 at
// x0; zw is 2t words of scratch.
func (p *HammingProblem) at(f ff.Field, phi, zw []uint64) uint64 {
	t := p.a.T
	clear(zw)
	// Column interpolants z_j = A_j(x0): value a_ij at grid point
	// i(t+1)+h for every h (dummy zero row i=0).
	z := zw[:t]
	// Root suppliers w_ℓ (ℓ = 1..t): value (ℓ-1) + [ℓ-1 >= h] at grid
	// point i(t+1)+h.
	w := zw[t:]
	for pt, v := range phi {
		if v == 0 {
			continue
		}
		i := pt / (t + 1)
		h := pt % (t + 1)
		if i >= 1 {
			row := p.a.Bits[(i-1)*t:]
			for j := 0; j < t; j++ {
				if row[j] == 1 {
					z[j] = f.Add(z[j], v)
				}
			}
		}
		for l := 1; l <= t; l++ {
			val := l - 1
			if l-1 >= h {
				val = l
			}
			if val != 0 {
				w[l-1] = f.Add(w[l-1], f.Mul(uint64(val)%f.Q, v))
			}
		}
	}
	// P(x0) = Σ_k Π_ℓ (dist_k(z) - w_ℓ), dist_k = Σ_j (1-z_j)b_kj + z_j(1-b_kj).
	total := uint64(0)
	for k := 0; k < p.b.N; k++ {
		row := p.b.Bits[k*t:]
		dist := uint64(0)
		for j := 0; j < t; j++ {
			if row[j] == 1 {
				dist = f.Add(dist, f.Sub(1, z[j]))
			} else {
				dist = f.Add(dist, z[j])
			}
		}
		prod := uint64(1)
		for l := 0; l < t && prod != 0; l++ {
			prod = f.Mul(prod, f.Sub(dist, w[l]))
		}
		total = f.Add(total, prod)
	}
	return total
}

// Compile implements plan.Compiler.
func (p *HammingProblem) Compile(f ff.Field) (plan.Plan, error) {
	return sweepPlan{f: f, basis: f.NewLagrangeEvaluatorZeroBased, grid: p.grid, scratch: 2 * p.a.T, at: p.at}, nil
}

// Distribution recovers c_ih for i = 1..n, h = 0..t.
func (p *HammingProblem) Distribution(proof *core.Proof) ([][]int64, error) {
	q := proof.Primes[0]
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	t := p.a.T
	out := make([][]int64, p.a.N)
	for i := 1; i <= p.a.N; i++ {
		out[i-1] = make([]int64, t+1)
		for h := 0; h <= t; h++ {
			// D_h = Π_{ℓ∈{0..t}\{h}} (h-ℓ) = (-1)^{t-h} h! (t-h)!.
			dh := uint64(1)
			for l := 0; l <= t; l++ {
				if l != h {
					dh = f.Mul(dh, f.Reduce(int64(h-l)))
				}
			}
			v := f.Div(proof.Eval(q, 0, uint64(i*(t+1)+h)), dh)
			if v > uint64(p.b.N) {
				return nil, fmt.Errorf("orthvec: c_{%d,%d} = %d exceeds row count — proof inconsistent", i, h, v)
			}
			out[i-1][h] = int64(v)
		}
	}
	return out, nil
}

// HammingDistributionNaive is the O(n²t) reference.
func HammingDistributionNaive(a, b *BoolMatrix) [][]int64 {
	out := make([][]int64, a.N)
	for i := 0; i < a.N; i++ {
		out[i] = make([]int64, a.T+1)
		for k := 0; k < b.N; k++ {
			h := 0
			for j := 0; j < a.T; j++ {
				if a.At(i, j) != b.At(k, j) {
					h++
				}
			}
			out[i][h]++
		}
	}
	return out
}
