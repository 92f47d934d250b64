// Package hamilton implements the paper's Theorem 8(3): a Camelot
// algorithm counting Hamiltonian cycles with proof size and time
// O*(2^{n/2}). Following the permanent blueprint of Appendix A.5 applied
// to Karp's inclusion–exclusion over walk counts: with z-indicators on
// the vertices other than a fixed anchor, the number of directed
// Hamiltonian cycles is
//
//	Σ_{z ∈ {0,1}^{n-1}} (-1)^{n-1-|z|} (M(z)^n)_{00},
//
// where M(z)_{uv} = a_uv·z_v (z_anchor = 1): the matrix power counts the
// closed n-walks from the anchor confined to the support of z, and the
// alternating sum keeps exactly the walks visiting every vertex — the
// Hamiltonian cycles. Half of the z variables ride the bit-sweeping
// interpolation vector D(x); the other half is enumerated per node.
package hamilton

import (
	"fmt"
	"math/big"

	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/graph"
)

// Problem is the Camelot Hamiltonian-cycle counting problem.
type Problem struct {
	g    *graph.Graph
	n    int
	half int // D(x)-swept z variables (vertices 1..half)
	rest int // enumerated z variables (vertices half+1..n-1)
	// numPrimes is NumPrimes, computed once: the verifier reads it for
	// every proof, and the bound is big-integer work.
	numPrimes int
}

var _ core.CompiledProblem = (*Problem)(nil)

// NewProblem builds the Theorem 8(3) problem.
func NewProblem(g *graph.Graph) (*Problem, error) {
	n := g.N()
	if n < 3 || n > 30 {
		return nil, fmt.Errorf("hamilton: n = %d out of supported range [3, 30]", n)
	}
	half := (n - 1) / 2
	p := &Problem{g: g, n: n, half: half, rest: n - 1 - half}
	p.numPrimes = crt.PrimesFor(p.Bound().BitLen()+1, p.MinModulus())
	return p, nil
}

// Name implements core.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("hamilton-cycles(n=%d,m=%d)", p.n, p.g.M()) }

// Width implements core.Problem.
func (p *Problem) Width() int { return 1 }

// Degree implements core.Problem: the surviving walk terms have total
// degree <= half in the swept z, the sign product adds half more,
// composed with deg D = 2^{half}-1. A closed n-walk's term survives the
// alternating sum over the enumerated suffix only if the walk visits
// all rest enumerated vertices; its last step lands on the anchor, so
// at most n-1-rest = half of its steps land on swept vertices.
func (p *Problem) Degree() int {
	return 2 * p.half * (1<<uint(p.half) - 1)
}

// MinModulus implements core.Problem.
func (p *Problem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(1)<<uint(p.half) + 1)
}

// Bound returns n!, an upper bound on the directed cycle count.
func (p *Problem) Bound() *big.Int { return new(big.Int).MulRange(1, int64(p.n)) }

// NumPrimes implements core.Problem.
func (p *Problem) NumPrimes() int { return p.numPrimes }

// Evaluate implements core.Problem: O*(2^{n/2}) — for each enumerated
// suffix, one n×n matrix power by repeated squaring.
func (p *Problem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	n := p.n
	// z_j = D_j(x0) for vertices 1..half.
	z := make([]uint64, n) // z[v] for every vertex; z[0] = 1 (anchor)
	z[0] = 1
	copy(z[1:], f.BitSweepAt(p.half, x0))
	// Prefix sign: (-1)^{n-1} Π_{j=1..half} (1-2z_j).
	signP := uint64(1)
	if (n-1)%2 == 1 {
		signP = f.Neg(signP)
	}
	for j := 0; j < p.half; j++ {
		signP = f.Mul(signP, f.Sub(1, f.Mul(2%f.Q, z[1+j])))
	}
	adj := p.g.AdjacencyMatrix()
	total := uint64(0)
	for suffix := uint64(0); suffix < 1<<uint(p.rest); suffix++ {
		ones := 0
		for j := 0; j < p.rest; j++ {
			if suffix&(1<<uint(j)) != 0 {
				z[1+p.half+j] = 1
				ones++
			} else {
				z[1+p.half+j] = 0
			}
		}
		// Suffix sign factor Π (1-2z_j) = (-1)^{#ones}.
		sign := signP
		if ones%2 == 1 {
			sign = f.Neg(sign)
		}
		if sign == 0 {
			continue
		}
		walks := closedWalks(f, adj, z, n)
		total = f.Add(total, f.Mul(sign, walks))
	}
	return []uint64{total}, nil
}

// closedWalks returns (M(z)^n)_{00} with M_{uv} = a_uv z_v, computed by
// iterated vector-matrix products from the anchor row: O(n³) per call.
func closedWalks(f ff.Field, adj []uint64, z []uint64, n int) uint64 {
	// vec starts as the anchor indicator; after k steps vec[v] counts
	// z-weighted walks of length k from vertex 0 to v.
	vec := make([]uint64, n)
	vec[0] = 1
	next := make([]uint64, n)
	for step := 0; step < n; step++ {
		for v := range next {
			next[v] = 0
		}
		for u := 0; u < n; u++ {
			if vec[u] == 0 {
				continue
			}
			row := adj[u*n:]
			for v := 0; v < n; v++ {
				if row[v] == 1 && z[v] != 0 {
					next[v] = f.Add(next[v], f.Mul(vec[u], z[v]))
				}
			}
		}
		vec, next = next, vec
	}
	return vec[0]
}

// RecoverDirected reconstructs the directed Hamiltonian cycle count
// Σ_{i<2^{half}} P(i) via the CRT.
func (p *Problem) RecoverDirected(proof *core.Proof) (*big.Int, error) {
	v, err := crt.Reconstruct(proof.SumRanges(0, 0, uint64(1)<<uint(p.half)), proof.Primes)
	if err != nil {
		return nil, fmt.Errorf("hamilton: %w", err)
	}
	return v, nil
}

// RecoverUndirected halves the directed count (each undirected cycle is
// traversed in two directions).
func (p *Problem) RecoverUndirected(proof *core.Proof) (*big.Int, error) {
	d, err := p.RecoverDirected(proof)
	if err != nil {
		return nil, err
	}
	quo, rem := new(big.Int).QuoRem(d, big.NewInt(2), new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("hamilton: directed count %v is odd — proof inconsistent", d)
	}
	return quo, nil
}

// CountDP counts undirected Hamiltonian cycles with the classical
// Held–Karp bitmask dynamic program: O(2^n n²), the sequential baseline.
func CountDP(g *graph.Graph) *big.Int {
	n := g.N()
	if n < 3 {
		return big.NewInt(0)
	}
	// dp[mask][v]: walks from 0 covering exactly mask (0 ∈ mask), ending
	// at v ∈ mask, visiting each mask vertex once.
	size := 1 << uint(n)
	dp := make([][]*big.Int, size)
	dp[1] = make([]*big.Int, n)
	for v := range dp[1] {
		dp[1][v] = big.NewInt(0)
	}
	dp[1][0] = big.NewInt(1)
	total := new(big.Int)
	for mask := 1; mask < size; mask += 2 { // masks containing vertex 0
		if dp[mask] == nil {
			continue
		}
		for v := 0; v < n; v++ {
			if dp[mask][v] == nil || dp[mask][v].Sign() == 0 {
				continue
			}
			if mask == size-1 {
				if v != 0 && g.HasEdge(v, 0) {
					total.Add(total, dp[mask][v])
				}
				continue
			}
			for u := 1; u < n; u++ {
				if mask&(1<<uint(u)) != 0 || !g.HasEdge(v, u) {
					continue
				}
				nm := mask | 1<<uint(u)
				if dp[nm] == nil {
					dp[nm] = make([]*big.Int, n)
				}
				if dp[nm][u] == nil {
					dp[nm][u] = big.NewInt(0)
				}
				dp[nm][u].Add(dp[nm][u], dp[mask][v])
			}
		}
		dp[mask] = nil // release as we go
	}
	// Each undirected cycle counted twice (two directions).
	return total.Rsh(total, 1)
}
