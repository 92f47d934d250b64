// Package tutte implements the paper's Theorem 7: a Camelot algorithm for
// the Tutte polynomial of an n-vertex multigraph with proof size
// O*(2^{n/3}) and per-node time O*(2^{(ω+ε)n/3}). The route (§10):
//
//  1. Reduce T_G(x,y) to the Potts/random-cluster partition function
//     Z_G(t,r) at integer points (t, r) via Fortuin–Kasteleyn (eq. (36)).
//  2. For each integer r, compute Z_G(·, r) as a partitioning sum-product
//     over f(X) = (1+r)^{|E(G[X])|} with the §7 template; the node
//     function is assembled with the tripartite split E1, E2, B of
//     Williams, whose cross-cut aggregation is a matrix product (eq. 38).
//  3. Interpolate the (t, r) grid to the coefficients of Z and change
//     variables per eq. (34) to recover T_G(x, y).
package tutte

import (
	"fmt"
	"math/big"

	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/partition"
)

// Problem is the fixed-r Camelot subproblem: coordinate t-1 carries the
// t-state Potts partitioning sum-product, t = 1..n+1.
type Problem struct {
	mg *graph.Multigraph
	n  int
	r  uint64
	// split is the §10 tripartite layout: B = ⌊n/3⌋ high vertices,
	// E = the rest, itself split into E1 (low half) and E2.
	split  partition.Split
	n1, n2 int
}

var _ core.Problem = (*Problem)(nil)

// NewProblem builds the fixed-r subproblem.
func NewProblem(mg *graph.Multigraph, r uint64) (*Problem, error) {
	n := mg.N()
	if n < 1 || n > 45 {
		return nil, fmt.Errorf("tutte: n = %d out of supported range [1, 45]", n)
	}
	if r < 1 {
		return nil, fmt.Errorf("tutte: Fortuin–Kasteleyn grid needs r >= 1, got %d", r)
	}
	split := partition.Tripartite(n)
	ne := len(split.E)
	n1 := (ne + 1) / 2
	return &Problem{mg: mg, n: n, r: r, split: split, n1: n1, n2: ne - n1}, nil
}

// Name implements core.Problem.
func (p *Problem) Name() string {
	return fmt.Sprintf("tutte-potts(n=%d,m=%d,r=%d)", p.n, p.mg.M(), p.r)
}

// Width implements core.Problem.
func (p *Problem) Width() int { return p.n + 1 }

// Degree implements core.Problem.
func (p *Problem) Degree() int { return p.split.Degree() }

// MinModulus implements core.Problem: above the proof degree, raised to
// the word-sized floor every problem shares (crt.FloorModulus).
func (p *Problem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(p.split.Degree()) + 2)
}

// NumPrimes implements core.Problem: Z(t,r) <= t^n (1+r)^m.
func (p *Problem) NumPrimes() int {
	bound := new(big.Int).Exp(big.NewInt(int64(p.n)+1), big.NewInt(int64(p.n)), nil)
	rp := new(big.Int).Exp(new(big.Int).SetUint64(p.r+1), big.NewInt(int64(p.mg.M())), nil)
	bound.Mul(bound, rp)
	return crt.PrimesFor(bound.BitLen(), p.MinModulus())
}

// Evaluate implements core.Problem: the compiled plan at one point.
func (p *Problem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	return p.compile(f).at(x0)
}

// Values recovers Z_G(t, r) for t = 1..n+1 at this problem's r.
func (p *Problem) Values(proof *core.Proof) ([]*big.Int, error) {
	idx := p.split.TargetIndex()
	out := make([]*big.Int, p.n+1)
	for t := 1; t <= p.n+1; t++ {
		v, err := crt.Reconstruct(proof.CoeffResidues(t-1, idx), proof.Primes)
		if err != nil {
			return nil, fmt.Errorf("tutte: t=%d: %w", t, err)
		}
		out[t-1] = v
	}
	return out, nil
}
