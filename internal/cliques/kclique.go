package cliques

import (
	"fmt"
	"math/big"

	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/matrix"
	"camelot/internal/plan"
	"camelot/internal/tensor"
)

// SubsetMatrix is the paper §5.1 reduction object: χ is indexed by the
// size-s subsets A, B of V(G) with
//
//	χ_AB = [A ∪ B is a clique in G and A ∩ B = ∅],
//
// so that the (6,2)-form with input χ counts every k-clique (k = 6s)
// exactly k!/(s!)^6 times.
type SubsetMatrix struct {
	// N is the number of size-s subsets, C(n, s).
	N int
	// S is the subset size k/6.
	S int
	// Entries is the 0/1 matrix in row-major order.
	Entries []uint64
}

// BuildSubsetMatrix constructs χ for the given graph and subset size s.
// Subsets are enumerated in lexicographic order of their sorted elements.
func BuildSubsetMatrix(g *graph.Graph, s int) (*SubsetMatrix, error) {
	n := g.N()
	if n > 62 {
		return nil, fmt.Errorf("cliques: subset matrix supports n <= 62, got %d", n)
	}
	if s < 1 || s > n {
		return nil, fmt.Errorf("cliques: subset size %d out of range for n=%d", s, n)
	}
	subsets := enumerateSubsets(n, s)
	// Only subsets that are themselves cliques can appear in a nonzero
	// entry; precompute the predicate.
	nn := len(subsets)
	sm := &SubsetMatrix{N: nn, S: s, Entries: make([]uint64, nn*nn)}
	isClique := make([]bool, nn)
	for i, m := range subsets {
		isClique[i] = g.IsCliqueMask(m)
	}
	for i, a := range subsets {
		if !isClique[i] {
			continue
		}
		for j, b := range subsets {
			if i == j || !isClique[j] || a&b != 0 {
				continue
			}
			if g.IsCliqueMask(a | b) {
				sm.Entries[i*nn+j] = 1
			}
		}
	}
	return sm, nil
}

// enumerateSubsets lists all size-s subsets of [n] as bit masks in
// lexicographic order.
func enumerateSubsets(n, s int) []uint64 {
	var out []uint64
	var rec func(start int, chosen int, mask uint64)
	rec = func(start, chosen int, mask uint64) {
		if chosen == s {
			out = append(out, mask)
			return
		}
		for v := start; v <= n-(s-chosen); v++ {
			rec(v+1, chosen+1, mask|1<<uint(v))
		}
	}
	rec(0, 0, 0)
	return out
}

// Multinomial returns k! / (s!)^6 for k = 6s: the overcount factor of
// the reduction.
func Multinomial(k int) *big.Int {
	s := k / 6
	num := new(big.Int).MulRange(1, int64(k))
	sf := new(big.Int).MulRange(1, int64(s))
	den := new(big.Int).Exp(sf, big.NewInt(6), nil)
	return num.Div(num, den)
}

// Problem is the Camelot k-clique counting problem (Theorem 1): the
// proof polynomial of §5.2 over the (6,2)-form of the subset matrix,
// with degree 3(R-1) for the rank R = dc.R() of the chosen matrix
// multiplication tensor decomposition.
//
// The per-prime form build (zero-padding χ into the field and fixing
// the decomposition bases) lives in Compile; point-wise Evaluate
// rebuilds it per call and exists as the verification reference.
type Problem struct {
	g  *graph.Graph
	k  int
	sm *SubsetMatrix
	dc tensor.Decomposition
	// padN is the decomposition size N0^T >= sm.N; χ is zero-padded.
	padN int
}

var (
	_ core.Problem         = (*Problem)(nil)
	_ core.CompiledProblem = (*Problem)(nil)
)

// NewProblem builds the Camelot clique problem for a graph, a clique
// size k divisible by 6, and a base tensor decomposition (Strassen() for
// the ω = log2 7 design, Trivial(b) for ω = 3).
func NewProblem(g *graph.Graph, k int, base tensor.Decomposition) (*Problem, error) {
	if k <= 0 || k%6 != 0 {
		return nil, fmt.Errorf("cliques: k must be a positive multiple of 6, got %d", k)
	}
	sm, err := BuildSubsetMatrix(g, k/6)
	if err != nil {
		return nil, err
	}
	dc, padN := base.ForSize(sm.N)
	return &Problem{g: g, k: k, sm: sm, dc: dc, padN: padN}, nil
}

// Name implements core.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("count-%d-cliques(n=%d)", p.k, p.g.N()) }

// Width implements core.Problem.
func (p *Problem) Width() int { return 1 }

// Degree implements core.Problem: deg P <= 3(R-1) (paper §5.2).
func (p *Problem) Degree() int { return 3 * (p.dc.R() - 1) }

// MinModulus implements core.Problem: q >= 3R+1 enables interpolation
// (paper §5.2), raised to the word-sized floor every problem shares
// (crt.FloorModulus).
func (p *Problem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(3*p.dc.R() + 1))
}

// CountBound returns N^6 · multinomial-free upper bound on X: the form
// value is at most N^6 for a 0/1 matrix.
func (p *Problem) CountBound() *big.Int {
	n := big.NewInt(int64(p.sm.N))
	return n.Exp(n, big.NewInt(6), nil)
}

// NumPrimes implements core.Problem.
func (p *Problem) NumPrimes() int {
	return crt.PrimesFor(p.CountBound().BitLen(), p.MinModulus())
}

// buildForm constructs the (6,2)-form of χ over the field: the
// zero-padded subset matrix lifted into Z_q.
func (p *Problem) buildForm(f ff.Field) (*Form, error) {
	chi := matrix.New(f, p.padN, p.padN)
	for i := 0; i < p.sm.N; i++ {
		copy(chi.A[i*p.padN:i*p.padN+p.sm.N], p.sm.Entries[i*p.sm.N:(i+1)*p.sm.N])
	}
	return NewUniformForm(f, chi)
}

// Evaluate implements core.Problem: P(x0) mod q via §5.3. It rebuilds
// the form per call — the compiled plan is the amortized path.
func (p *Problem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	fm, err := p.buildForm(f)
	if err != nil {
		return nil, err
	}
	v, err := fm.ProofEval(p.dc, x0)
	if err != nil {
		return nil, err
	}
	return []uint64{v}, nil
}

// compiled is the clique Plan for one prime: the form is built once at
// compile time; each EvaluateBlock call makes its own tensor
// point-evaluator (Form.Combine allocates per call), so one plan serves
// concurrent chunk tasks.
type compiled struct {
	p  *Problem
	fm *Form
}

// Compile implements plan.Compiler: one form build per prime, and one
// tensor point-evaluator per block instead of one-shot Lagrange tables
// and reduced bases three times per point. Each point then runs
// Form.Combine, as ProofEval does.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) {
	fm, err := p.buildForm(f)
	if err != nil {
		return nil, err
	}
	return &compiled{p: p, fm: fm}, nil
}

// EvaluateBlock implements plan.Plan.
func (c *compiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	vals := make([]uint64, len(xs))
	err := c.p.dc.NewPointEvaluator(c.fm.f).Sweep(xs, func(i int, alpha, beta, gamma *matrix.Matrix) (err error) {
		vals[i], err = c.fm.Combine(alpha, beta, gamma)
		return err
	})
	if err != nil {
		return nil, err
	}
	return plan.Rows(vals, 1), nil
}

// Recover extracts the clique count from a decoded proof:
// X = Σ_{r=1}^{R} P(r) per modulus (Theorem 13), CRT over the primes,
// then division by the k!/(s!)^6 overcount.
func (p *Problem) Recover(proof *core.Proof) (*big.Int, error) {
	r := uint64(p.dc.R())
	x, err := crt.Reconstruct(proof.SumRanges(0, 1, r+1), proof.Primes)
	if err != nil {
		return nil, fmt.Errorf("cliques: %w", err)
	}
	mult := Multinomial(p.k)
	quo, rem := new(big.Int).QuoRem(x, mult, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("cliques: form value %v not divisible by %v — proof inconsistent", x, mult)
	}
	return quo, nil
}

// --- Sequential baselines ----------------------------------------------------

// CountNaive counts k-cliques by ordered DFS extension — the ground
// truth for tests (exact, exponential in k only).
func CountNaive(g *graph.Graph, k int) *big.Int {
	n := g.N()
	count := big.NewInt(0)
	one := big.NewInt(1)
	// cur holds the chosen vertices; cand the still-extendable vertices
	// greater than the last chosen one and adjacent to all chosen.
	var rec func(last int, depth int, cand []int)
	rec = func(last, depth int, cand []int) {
		if depth == k {
			count.Add(count, one)
			return
		}
		for i, v := range cand {
			// Remaining candidates adjacent to v.
			next := make([]int, 0, len(cand)-i-1)
			for _, u := range cand[i+1:] {
				if g.HasEdge(v, u) {
					next = append(next, u)
				}
			}
			if len(next) >= k-depth-1 {
				rec(v, depth+1, next)
			} else if k-depth-1 == 0 {
				rec(v, depth+1, next)
			}
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	rec(-1, 0, all)
	return count
}

// CountNesetrilPoljak counts k-cliques (k divisible by 6 here, to share
// the subset machinery) with the §4.1 circuit: O(N^{2ω}) time, O(N⁴)
// space. Exact over the integers via a single 61-bit prime when the
// bound fits, CRT otherwise.
func CountNesetrilPoljak(g *graph.Graph, k int) (*big.Int, error) {
	sm, err := BuildSubsetMatrix(g, k/6)
	if err != nil {
		return nil, err
	}
	bound := new(big.Int).Exp(big.NewInt(int64(sm.N)), big.NewInt(6), nil)
	minQ := crt.FloorModulus(0) // the circuit asks nothing of q
	primes, err := core.ChoosePrimes(crt.PrimesFor(bound.BitLen(), minQ), minQ, 4)
	if err != nil {
		return nil, err
	}
	residues := make([]uint64, len(primes))
	for i, q := range primes {
		f, err := ff.New(q)
		if err != nil {
			return nil, err
		}
		chi, err := matrix.FromSlice(f, sm.N, sm.N, sm.Entries)
		if err != nil {
			return nil, err
		}
		fm, err := NewUniformForm(f, chi)
		if err != nil {
			return nil, err
		}
		residues[i] = fm.EvalNesetrilPoljak()
	}
	x, err := crt.Reconstruct(residues, primes)
	if err != nil {
		return nil, err
	}
	mult := Multinomial(k)
	quo, rem := new(big.Int).QuoRem(x, mult, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("cliques: NP form value %v not divisible by %v", x, mult)
	}
	return quo, nil
}

// CountParts counts k-cliques with the Theorem 2 execution: the new
// circuit, Σ_r P(r) over parallel workers, O(N²) space per worker.
func CountParts(g *graph.Graph, k int, base tensor.Decomposition, parallelism int) (*big.Int, error) {
	p, err := NewProblem(g, k, base)
	if err != nil {
		return nil, err
	}
	primes, err := core.ChoosePrimes(p.NumPrimes(), p.MinModulus(), 4)
	if err != nil {
		return nil, err
	}
	residues := make([]uint64, len(primes))
	for i, q := range primes {
		f, err := ff.New(q)
		if err != nil {
			return nil, err
		}
		fm, err := p.buildForm(f)
		if err != nil {
			return nil, err
		}
		residues[i], err = fm.EvalParts(p.dc, parallelism)
		if err != nil {
			return nil, err
		}
	}
	x, err := crt.Reconstruct(residues, primes)
	if err != nil {
		return nil, err
	}
	mult := Multinomial(k)
	quo, rem := new(big.Int).QuoRem(x, mult, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("cliques: parts form value %v not divisible by %v", x, mult)
	}
	return quo, nil
}
