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
	"math/bits"

	"camelot/internal/bipoly"
	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/matrix"
	"camelot/internal/partition"
	"camelot/internal/yates"
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

// nodeG computes the §10.2 node function. Vertex layout: E1 occupies
// vertices 0..n1-1, E2 occupies n1..ne-1, B occupies ne..n-1. The
// cross-cut aggregation t_{E1,E2} = f̂_{B,E1} · f̂_{B,E2}ᵀ is performed as
// |B|+1 scalar matrix products, one per B-subset cardinality class (the
// w_B exponent), each of shape 2^{|E1|} × 2^{|B|} × 2^{|E2|}.
func (p *Problem) nodeG(f ff.Field, x0 uint64) []bipoly.Poly {
	ring := p.split.Ring(f)
	ne := len(p.split.E)
	nb := len(p.split.B)
	n1, n2 := p.n1, p.n2
	xp := p.split.NewXPowers(f, x0)
	m := p.mg.M()
	// Powers of (1+r).
	onePlusR := make([]uint64, 2*m+1)
	onePlusR[0] = 1 % f.Q
	base := (p.r + 1) % f.Q
	for i := 1; i < len(onePlusR); i++ {
		onePlusR[i] = f.Mul(onePlusR[i-1], base)
	}

	vmE1 := func(y1 uint64) uint64 { return y1 }
	vmE2 := func(y2 uint64) uint64 { return y2 << uint(n1) }
	vmB := func(x uint64) uint64 { return x << uint(ne) }

	// S1[Y1][X] = (1+r)^{E[X,Y1]+E[X]} · w_B-scalar x0^{ΣX}
	// S2[Y2][X] = (1+r)^{E[X,Y2]+E[Y2]}
	s1 := matrix.New(f, 1<<uint(n1), 1<<uint(nb))
	s2 := matrix.New(f, 1<<uint(n2), 1<<uint(nb))
	edgesWithinB := make([]int, 1<<uint(nb))
	xPow := make([]uint64, 1<<uint(nb))
	for x := uint64(0); x < 1<<uint(nb); x++ {
		edgesWithinB[x] = p.mg.EdgesWithinMask(vmB(x))
		xPow[x] = xp.ForMask(x)
	}
	for y1 := uint64(0); y1 < 1<<uint(n1); y1++ {
		for x := uint64(0); x < 1<<uint(nb); x++ {
			exp := p.mg.EdgesBetweenMasks(vmB(x), vmE1(y1)) + edgesWithinB[x]
			s1.Set(int(y1), int(x), f.Mul(onePlusR[exp], xPow[x]))
		}
	}
	for y2 := uint64(0); y2 < 1<<uint(n2); y2++ {
		e2within := p.mg.EdgesWithinMask(vmE2(y2))
		for x := uint64(0); x < 1<<uint(nb); x++ {
			exp := p.mg.EdgesBetweenMasks(vmB(x), vmE2(y2)) + e2within
			s2.Set(int(y2), int(x), onePlusR[exp])
		}
	}
	// Per-cardinality products: T_j = S1|_j · (S2|_j)ᵀ.
	tj := make([]*matrix.Matrix, nb+1)
	for j := 0; j <= nb; j++ {
		m1 := matrix.New(f, s1.R, s1.C)
		m2 := matrix.New(f, s2.R, s2.C)
		for x := uint64(0); x < 1<<uint(nb); x++ {
			if bits.OnesCount64(x) != j {
				continue
			}
			for y1 := 0; y1 < s1.R; y1++ {
				m1.Set(y1, int(x), s1.At(y1, int(x)))
			}
			for y2 := 0; y2 < s2.R; y2++ {
				m2.Set(y2, int(x), s2.At(y2, int(x)))
			}
		}
		tj[j] = m1.Mul(m2.Transpose())
	}
	// g0(Y1 ∪ Y2) = f_{E1,E2}(Y1,Y2) · Σ_j T_j[Y1][Y2] w_E^{|Y|} w_B^j.
	g := make([]bipoly.Poly, 1<<uint(ne))
	for y1 := uint64(0); y1 < 1<<uint(n1); y1++ {
		for y2 := uint64(0); y2 < 1<<uint(n2); y2++ {
			f12exp := p.mg.EdgesBetweenMasks(vmE1(y1), vmE2(y2)) + p.mg.EdgesWithinMask(vmE1(y1))
			f12 := onePlusR[f12exp]
			wE := bits.OnesCount64(y1) + bits.OnesCount64(y2)
			poly := ring.Zero()
			for j := 0; j <= nb; j++ {
				c := f.Mul(f12, tj[j].At(int(y1), int(y2)))
				poly = ring.AddInPlace(poly, ring.Monomial(wE, j, c))
			}
			g[y1|y2<<uint(n1)] = poly
		}
	}
	// g = zeta(g0) over the E lattice.
	yates.Zeta(ne, g, ring.AddInPlace)
	return g
}

// Evaluate implements core.Problem.
func (p *Problem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	g := p.nodeG(f, x0)
	return p.split.EvaluateAll(p.split.Ring(f), g, p.n+1)
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
