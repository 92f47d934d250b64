// Package orthvec implements the paper's Theorem 11(1) and 11(2): Camelot
// algorithms with proof size and time Õ(nt^c) for counting orthogonal
// pairs among Boolean vectors (c = 1) and for the full Hamming distance
// distribution (c = 2). The proof polynomials compose column-interpolating
// polynomials A_j(x) with a multivariate combination indicator (Appendix
// A.1 and A.3).
package orthvec

import (
	"fmt"
	"math/big"

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
	return &OVProblem{a: a, b: b}, nil
}

// Name implements core.Problem.
func (p *OVProblem) Name() string { return fmt.Sprintf("orthogonal-vectors(n=%d,t=%d)", p.a.N, p.a.T) }

// Width implements core.Problem.
func (p *OVProblem) Width() int { return 1 }

// Degree implements core.Problem: t factors of degree <= n-1.
func (p *OVProblem) Degree() int { return p.a.T * (p.a.N - 1) }

// MinModulus implements core.Problem: q must exceed the recovery grid and
// the counts c_i <= n(B), so one prime at the shared floor
// (crt.FloorModulus) suffices.
func (p *OVProblem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(max(p.a.N, p.b.N) + 1))
}

// NumPrimes implements core.Problem: c_i <= n < q, one prime suffices.
func (p *OVProblem) NumPrimes() int { return 1 }

// Evaluate implements core.Problem: Õ(nt) per point.
func (p *OVProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	lam := f.LagrangeAtOneBased(p.a.N, x0)
	// A_j(x0) = Σ_i a_ij Λ_{i+1}(x0).
	acol := make([]uint64, p.a.T)
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
	// hoist the t complements out of the n-row sweep.
	k := f.Kernel()
	for j, v := range acol {
		acol[j] = k.Shift(f.Sub(1, v)) // pre-shifted for MulKS
	}
	total := uint64(0)
	for r := 0; r < p.b.N; r++ {
		row := p.b.Bits[r*p.b.T:]
		prod := uint64(1)
		for j := 0; j < p.b.T && prod != 0; j++ {
			if row[j] == 1 {
				prod = ff.MulKS(prod, acol[j], k)
			}
		}
		total = f.Add(total, prod)
	}
	return []uint64{total}, nil
}

// ovCompiled is the OVProblem Plan for one prime. The Lagrange
// evaluator is built per EvaluateBlock call (its factorial/denominator
// setup amortizes over the block's points, its field inversions over
// each run of them); the column scratch vector is likewise per call,
// making one plan safe for concurrent chunk tasks.
type ovCompiled struct {
	p *OVProblem
	f ff.Field
}

// Compile implements plan.Compiler: the Lagrange factorial and
// denominator tables are built once per block instead of once per
// point, and the basis/column scratch vectors are reused across the
// block, leaving only the irreducible Õ(nt) combination work per point.
// Deliberately not shared with Evaluate (which verification uses): the
// two paths go through different Lagrange kernels and cross-check each
// other.
func (p *OVProblem) Compile(f ff.Field) (plan.Plan, error) {
	return &ovCompiled{p: p, f: f}, nil
}

// EvaluateBlock implements plan.Plan.
func (c *ovCompiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	p, f := c.p, c.f
	k := f.Kernel()
	acol := make([]uint64, p.a.T)
	out := make([][]uint64, len(xs))
	f.NewLagrangeEvaluatorOneBased(p.a.N).Sweep(xs, func(xi int, lam []uint64) {
		for j := range acol {
			acol[j] = 0
		}
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
		for j, v := range acol {
			// Hoist the pre-shifted complements out of the row sweep.
			acol[j] = k.Shift(f.Sub(1, v))
		}
		total := uint64(0)
		for r := 0; r < p.b.N; r++ {
			row := p.b.Bits[r*p.b.T:]
			prod := uint64(1)
			for j := 0; j < p.b.T && prod != 0; j++ {
				if row[j] == 1 {
					prod = ff.MulKS(prod, acol[j], k)
				}
			}
			total = f.Add(total, prod)
		}
		out[xi] = []uint64{total}
	})
	return out, nil
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

// Evaluate implements core.Problem: Õ(nt²) per point.
func (p *HammingProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	t := p.a.T
	phi := f.LagrangeAtZeroBased(p.grid, x0)
	// Column interpolants z_j = A_j(x0): value a_ij at grid point
	// i(t+1)+h for every h (dummy zero row i=0).
	z := make([]uint64, t)
	// Root suppliers w_ℓ (ℓ = 1..t): value (ℓ-1) + [ℓ-1 >= h] at grid
	// point i(t+1)+h.
	w := make([]uint64, t)
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
				w[l-1] = f.Add(w[l-1], f.Mul(uint64(val)%q, v))
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
	return []uint64{total}, nil
}

// hammingCompiled is the HammingProblem Plan for one prime: the
// Lagrange evaluator and the z/w scratch are per-call, the point loop
// otherwise mirrors Evaluate exactly (same arithmetic order, so rows
// are bit-identical).
type hammingCompiled struct {
	p *HammingProblem
	f ff.Field
}

// Compile implements plan.Compiler: the Lagrange factorial and
// denominator tables build once per block instead of once per point,
// and the differences are inverted once per run of points.
func (p *HammingProblem) Compile(f ff.Field) (plan.Plan, error) {
	return &hammingCompiled{p: p, f: f}, nil
}

// EvaluateBlock implements plan.Plan.
func (c *hammingCompiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	p, f := c.p, c.f
	q := f.Q
	t := p.a.T
	z := make([]uint64, t)
	w := make([]uint64, t)
	out := make([][]uint64, len(xs))
	f.NewLagrangeEvaluatorZeroBased(p.grid).Sweep(xs, func(xi int, phi []uint64) {
		for j := range z {
			z[j] = 0
		}
		for l := range w {
			w[l] = 0
		}
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
					w[l-1] = f.Add(w[l-1], f.Mul(uint64(val)%q, v))
				}
			}
		}
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
		out[xi] = []uint64{total}
	})
	return out, nil
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
