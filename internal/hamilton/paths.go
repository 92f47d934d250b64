package hamilton

// Hamiltonian paths — the paper's Appendix A.5 closing remark ("a
// similar approach works for counting the number of Hamiltonian paths").
// The inclusion–exclusion kernel changes from closed n-walks anchored at
// a vertex to open (n-1)-walks with free endpoints, with every visited
// vertex (the start included) carrying its z-indicator:
//
//	#directed Hamiltonian paths = Σ_{z∈{0,1}^n} (-1)^{n-|z|} · 1ᵀ_z M(z)^{n-1} 1,
//
// where (1_z)_u = z_u and M(z)_{uv} = a_uv z_v. Half of the z variables
// ride the bit-sweeping interpolation vector D(x), the rest are
// enumerated per node — proof size and per-node time O*(2^{n/2}).

import (
	"fmt"
	"math/big"

	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/graph"
)

// PathProblem is the Camelot Hamiltonian-path counting problem.
type PathProblem struct {
	g    *graph.Graph
	n    int
	half int // D(x)-swept z variables (vertices 0..half-1)
	rest int
}

var _ core.CompiledProblem = (*PathProblem)(nil)

// NewPathProblem builds the Hamiltonian-path problem.
func NewPathProblem(g *graph.Graph) (*PathProblem, error) {
	n := g.N()
	if n < 2 || n > 30 {
		return nil, fmt.Errorf("hamilton: n = %d out of supported range [2, 30]", n)
	}
	half := n / 2
	return &PathProblem{g: g, n: n, half: half, rest: n - half}, nil
}

// Name implements core.Problem.
func (p *PathProblem) Name() string {
	return fmt.Sprintf("hamilton-paths(n=%d,m=%d)", p.n, p.g.M())
}

// Width implements core.Problem.
func (p *PathProblem) Width() int { return 1 }

// Degree implements core.Problem: the surviving walk terms have total
// degree <= half in the swept z, the sign product adds half, composed
// with deg D = 2^{half}-1. A path's term carries one z per visited
// vertex and survives the alternating sum over the enumerated suffix
// only if it visits all rest enumerated vertices, so at most
// n-rest = half of its n vertices are swept ones.
func (p *PathProblem) Degree() int {
	return 2 * p.half * (1<<uint(p.half) - 1)
}

// MinModulus implements core.Problem.
func (p *PathProblem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(1)<<uint(p.half) + 1)
}

// NumPrimes implements core.Problem: the directed path count is < n!.
func (p *PathProblem) NumPrimes() int {
	return crt.PrimesFor(new(big.Int).MulRange(1, int64(p.n)).BitLen()+1, p.MinModulus())
}

// Evaluate implements core.Problem.
func (p *PathProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	n := p.n
	z := make([]uint64, n)
	copy(z, f.BitSweepAt(p.half, x0))
	signP := uint64(1)
	if n%2 == 1 {
		signP = f.Neg(signP)
	}
	for j := 0; j < p.half; j++ {
		signP = f.Mul(signP, f.Sub(1, f.Mul(2%f.Q, z[j])))
	}
	adj := p.g.AdjacencyMatrix()
	total := uint64(0)
	for suffix := uint64(0); suffix < 1<<uint(p.rest); suffix++ {
		ones := 0
		for j := 0; j < p.rest; j++ {
			if suffix&(1<<uint(j)) != 0 {
				z[p.half+j] = 1
				ones++
			} else {
				z[p.half+j] = 0
			}
		}
		sign := signP
		if ones%2 == 1 {
			sign = f.Neg(sign)
		}
		if sign == 0 {
			continue
		}
		total = f.Add(total, f.Mul(sign, openWalks(f, adj, z, n)))
	}
	return []uint64{total}, nil
}

// openWalks returns 1ᵀ_z M(z)^{n-1} 1: the z-weighted count of walks of
// length n-1 with free endpoints, every visited vertex weighted once.
func openWalks(f ff.Field, adj []uint64, z []uint64, n int) uint64 {
	vec := make([]uint64, n)
	copy(vec, z) // start weights
	next := make([]uint64, n)
	for step := 0; step < n-1; step++ {
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
	acc := uint64(0)
	for _, v := range vec {
		acc = f.Add(acc, v)
	}
	return acc
}

// RecoverDirected reconstructs the directed Hamiltonian path count.
func (p *PathProblem) RecoverDirected(proof *core.Proof) (*big.Int, error) {
	v, err := crt.Reconstruct(proof.SumRanges(0, 0, uint64(1)<<uint(p.half)), proof.Primes)
	if err != nil {
		return nil, fmt.Errorf("hamilton: %w", err)
	}
	return v, nil
}

// RecoverUndirected halves the directed count.
func (p *PathProblem) RecoverUndirected(proof *core.Proof) (*big.Int, error) {
	d, err := p.RecoverDirected(proof)
	if err != nil {
		return nil, err
	}
	quo, rem := new(big.Int).QuoRem(d, big.NewInt(2), new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("hamilton: directed path count %v is odd — proof inconsistent", d)
	}
	return quo, nil
}

// CountPathsDP counts undirected Hamiltonian paths with a bitmask
// dynamic program: O(2^n n²), the sequential baseline.
func CountPathsDP(g *graph.Graph) *big.Int {
	n := g.N()
	if n < 2 {
		return big.NewInt(0)
	}
	size := 1 << uint(n)
	dp := make([][]*big.Int, size)
	for v := 0; v < n; v++ {
		mask := 1 << uint(v)
		if dp[mask] == nil {
			dp[mask] = make([]*big.Int, n)
		}
		dp[mask][v] = big.NewInt(1)
	}
	total := new(big.Int)
	for mask := 1; mask < size; mask++ {
		if dp[mask] == nil {
			continue
		}
		for v := 0; v < n; v++ {
			if dp[mask][v] == nil || dp[mask][v].Sign() == 0 {
				continue
			}
			if mask == size-1 {
				total.Add(total, dp[mask][v])
				continue
			}
			for u := 0; u < n; u++ {
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
		dp[mask] = nil
	}
	// Each undirected path counted once per direction.
	return total.Rsh(total, 1)
}
