// Package chromatic implements the paper's Theorem 6: a Camelot algorithm
// computing the chromatic polynomial of an n-vertex graph with proof size
// and per-node time O*(2^{n/2}), against the O*(2^n)-time sequential
// baseline. The proof polynomial instantiates the §7 partitioning
// template with f = the independent-set indicator (§9.1); the node
// function aggregates contributions across the (E, B) vertex cut with
// zeta transforms (§9.2).
package chromatic

import (
	"fmt"
	"math/big"
	"math/bits"

	"camelot/internal/bipoly"
	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/interp"
	"camelot/internal/partition"
	"camelot/internal/plan"
	"camelot/internal/yates"
)

// Problem is the Camelot chromatic-polynomial problem. It is
// vector-valued: coordinate t-1 carries the proof polynomial for the
// t-color partitioning sum-product, t = 1..n+1, all sharing one node
// function per evaluation point.
type Problem struct {
	g     *graph.Graph
	n     int
	split partition.Split

	// masks holds the x0- and q-independent independent-set structure
	// of the cut, built once at construction; see maskPlan.
	masks maskPlan
}

var _ core.Problem = (*Problem)(nil)
var _ core.CompiledProblem = (*Problem)(nil)

// NewProblem builds the Theorem 6 problem for a simple graph.
func NewProblem(g *graph.Graph) (*Problem, error) {
	n := g.N()
	if n < 1 || n > 50 {
		return nil, fmt.Errorf("chromatic: n = %d out of supported range [1, 50]", n)
	}
	p := &Problem{g: g, n: n, split: partition.Balanced(n)}
	p.buildMasks()
	return p, nil
}

// Name implements core.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("chromatic(n=%d,m=%d)", p.n, p.g.M()) }

// Width implements core.Problem: one coordinate per color count 1..n+1.
func (p *Problem) Width() int { return p.n + 1 }

// Degree implements core.Problem.
func (p *Problem) Degree() int { return p.split.Degree() }

// MinModulus implements core.Problem: above the proof degree, raised to
// the word-sized floor every problem shares (crt.FloorModulus).
func (p *Problem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(p.split.Degree()) + 2)
}

// NumPrimes implements core.Problem: χ_G(t) <= (n+1)^n over the grid.
func (p *Problem) NumPrimes() int {
	bound := new(big.Int).Exp(big.NewInt(int64(p.n)+1), big.NewInt(int64(p.n)), nil)
	return crt.PrimesFor(bound.BitLen(), p.MinModulus())
}

// Evaluate implements core.Problem: (P_1(x0), ..., P_{n+1}(x0)) mod q,
// the compiled plan at one point.
func (p *Problem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	return p.at(p.split.Ring(f), x0)
}

// at is the row at x0: the §9.2 node function in O*(2^{n/2}) — a zeta
// transform over the B-side independent sets, lookups across the cut
// and a zeta transform over the E side — through the template's
// sum-product, with incremental powers sharing the node function across
// all t.
func (p *Problem) at(ring bipoly.Ring, x0 uint64) ([]uint64, error) {
	ne := len(p.split.E)
	nb := len(p.split.B)
	xp := p.split.NewXPowers(ring.F, x0)
	// fB(X) for X ⊆ B: w_B^{|X|} x0^{ΣX} if X independent, else 0;
	// gB = zeta(fB) over the B lattice.
	gB := make([]bipoly.Poly, 1<<uint(nb))
	for _, m := range p.masks.b {
		gB[m.mask] = ring.Monomial(0, m.pop, xp.ForMask(m.mask))
	}
	yates.Zeta(nb, gB, ring.AddInPlace)
	// f̂E(X) for X ⊆ E: w_E^{|X|} · gB(B \ Γ_{G,B}(X)) if X independent;
	// g = zeta(f̂E) over the E lattice.
	g := make([]bipoly.Poly, 1<<uint(ne))
	for _, m := range p.masks.e {
		g[m.mask] = ring.MulMonomial(gB[m.comp], m.pop, 0, 1)
	}
	yates.Zeta(ne, g, ring.AddInPlace)
	return p.split.EvaluateAll(ring, g, p.n+1)
}

// maskPlan is the evaluation-point-independent (and modulus-
// independent) part of the node function: which subsets of each side of
// the cut are independent sets, their sizes, and — for the E side — the
// gB table index B \ Γ(X) the cross-cut lookup reads, built once at
// construction for every point of every prime.
type maskPlan struct {
	b []bMask
	e []eMask
}

type bMask struct {
	mask uint64 // X ⊆ B, independent (B-local bits)
	pop  int
}

type eMask struct {
	mask uint64 // X ⊆ E, independent
	comp uint64 // fullB &^ (Γ(X) ∩ B): the gB index read for X
	pop  int
}

func (p *Problem) buildMasks() {
	ne := len(p.split.E)
	nb := len(p.split.B)
	fullB := uint64(1)<<uint(nb) - 1
	for bm := uint64(0); bm <= fullB; bm++ {
		if p.g.IsIndependentMask(bm << uint(ne)) {
			p.masks.b = append(p.masks.b, bMask{mask: bm, pop: bits.OnesCount64(bm)})
		}
	}
	for em := uint64(0); em < 1<<uint(ne); em++ {
		if !p.g.IsIndependentMask(em) {
			continue
		}
		nbrB := (p.g.NeighborhoodMask(em) >> uint(ne)) & fullB
		p.masks.e = append(p.masks.e, eMask{mask: em, comp: fullB &^ nbrB, pop: bits.OnesCount64(em)})
	}
}

// compiled is the chromatic Plan for one prime: the ring, bound once.
// All per-point state (x0 powers, the gB and g lattices) is allocated
// inside at, so one compiled plan serves concurrent chunk tasks.
type compiled struct {
	p    *Problem
	ring bipoly.Ring
}

// Compile implements plan.Compiler.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) {
	return &compiled{p: p, ring: p.split.Ring(f)}, nil
}

// EvaluateBlock implements plan.Plan.
func (c *compiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	rows := make([][]uint64, len(xs))
	for i, x0 := range xs {
		row, err := c.p.at(c.ring, x0)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

// Values recovers the chromatic polynomial values χ_G(t) for
// t = 1..n+1 from a decoded proof: coordinate t-1's coefficient at the
// template target index, CRT'd over the primes.
func (p *Problem) Values(proof *core.Proof) ([]*big.Int, error) {
	idx := p.split.TargetIndex()
	out := make([]*big.Int, p.n+1)
	for t := 1; t <= p.n+1; t++ {
		v, err := crt.Reconstruct(proof.CoeffResidues(t-1, idx), proof.Primes)
		if err != nil {
			return nil, fmt.Errorf("chromatic: t=%d: %w", t, err)
		}
		out[t-1] = v
	}
	return out, nil
}

// Coefficients recovers the chromatic polynomial's integer coefficients
// (degree n, so n+1 coefficients c_0..c_n with χ_G(t) = Σ c_k t^k) by
// exact interpolation through the grid values.
func (p *Problem) Coefficients(proof *core.Proof) ([]*big.Int, error) {
	values, err := p.Values(proof)
	if err != nil {
		return nil, err
	}
	points := make([]int64, p.n+1)
	for i := range points {
		points[i] = int64(i + 1)
	}
	coeffs, err := interp.LagrangeInt(points, values)
	if err != nil {
		return nil, fmt.Errorf("chromatic: %w", err)
	}
	return coeffs, nil
}

// --- Sequential baselines ----------------------------------------------------

// CountColoringsBrute counts proper t-colorings by enumerating all t^n
// assignments — the tiny-graph ground truth.
func CountColoringsBrute(g *graph.Graph, t int) *big.Int {
	n := g.N()
	count := big.NewInt(0)
	one := big.NewInt(1)
	colors := make([]int, n)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			count.Add(count, one)
			return
		}
		for c := 0; c < t; c++ {
			ok := true
			for u := 0; u < v; u++ {
				if colors[u] == c && g.HasEdge(u, v) {
					ok = false
					break
				}
			}
			if ok {
				colors[v] = c
				rec(v + 1)
			}
		}
	}
	rec(0)
	return count
}

// DeletionContraction computes the chromatic polynomial coefficients via
// the classical recursion χ(G) = χ(G-e) - χ(G/e): exponential in m but
// exact, the cross-check oracle for small graphs.
func DeletionContraction(g *graph.Graph) []*big.Int {
	adj := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		adj[[2]int{e[0], e[1]}] = true
	}
	return chromaticRec(g.N(), adj)
}

// chromaticRec works on a vertex count and a normalized (u<v) edge set.
func chromaticRec(n int, edges map[[2]int]bool) []*big.Int {
	if len(edges) == 0 {
		// x^n
		coeffs := make([]*big.Int, n+1)
		for i := range coeffs {
			coeffs[i] = big.NewInt(0)
		}
		coeffs[n] = big.NewInt(1)
		return coeffs
	}
	// Pick any edge.
	var e [2]int
	for k := range edges {
		e = k
		break
	}
	// Deletion.
	del := make(map[[2]int]bool, len(edges)-1)
	for k := range edges {
		if k != e {
			del[k] = true
		}
	}
	dc := chromaticRec(n, del)
	// Contraction: merge e[1] into e[0], relabel vertices > e[1] down by 1,
	// dropping duplicate edges and the loop.
	con := make(map[[2]int]bool)
	relabel := func(v int) int {
		switch {
		case v == e[1]:
			v = e[0]
		case v > e[1]:
			v--
		}
		return v
	}
	for k := range edges {
		if k == e {
			continue
		}
		u, v := relabel(k[0]), relabel(k[1])
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		con[[2]int{u, v}] = true
	}
	cc := chromaticRec(n-1, con)
	out := make([]*big.Int, n+1)
	for i := range out {
		out[i] = big.NewInt(0)
		if i < len(dc) {
			out[i].Set(dc[i])
		}
		if i < len(cc) {
			out[i].Sub(out[i], cc[i])
		}
	}
	return out
}
