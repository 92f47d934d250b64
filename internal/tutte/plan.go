package tutte

// Compiled plan for the fixed-r Potts subproblem. The evaluation point
// x0 enters the node function only through the w_B-scalar x0^{ΣX}
// factors of S1 — every other ingredient is fixed per prime: the (1+r)
// power table, the S1 exponent factors, the S2 matrix together with its
// per-cardinality transposed slices, and the f_{E1,E2} cross factors.
// compile builds those; at rebuilds only S1 and the downstream products
// per point. Evaluate is compile plus one point. Hoisted state is
// read-only (matrix.Mul allocates its result) and all scratch is per
// point, so one plan serves concurrent chunk tasks.

import (
	"math/bits"

	"camelot/internal/bipoly"
	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/matrix"
	"camelot/internal/plan"
	"camelot/internal/yates"
)

var _ core.CompiledProblem = (*Problem)(nil)

type compiled struct {
	p *Problem
	f ff.Field
	// s1base[y1<<nb | x] = (1+r)^{E[X,Y1]+E[X]}: S1 before the x0^{ΣX} factor.
	s1base []uint64
	// m2t[j] = (S2|_j)ᵀ, the cardinality-j column slice of
	// S2[Y2][X] = (1+r)^{E[X,Y2]+E[Y2]}, transposed.
	m2t []*matrix.Matrix
	// colsByJ[j] lists the B-masks of popcount j.
	colsByJ [][]uint64
	// f12[y1<<n2 | y2] = (1+r)^{E[Y1,Y2]+E[Y1]}.
	f12 []uint64
}

// Compile implements plan.Compiler.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) { return p.compile(f), nil }

// compile builds the point-independent tables of the node function.
func (p *Problem) compile(f ff.Field) *compiled {
	ne := len(p.split.E)
	nb := len(p.split.B)
	n1, n2 := p.n1, p.n2
	m := p.mg.M()
	onePlusR := make([]uint64, 2*m+1)
	onePlusR[0] = 1 % f.Q
	base := (p.r + 1) % f.Q
	for i := 1; i < len(onePlusR); i++ {
		onePlusR[i] = f.Mul(onePlusR[i-1], base)
	}

	vmE1 := func(y1 uint64) uint64 { return y1 }
	vmE2 := func(y2 uint64) uint64 { return y2 << uint(n1) }
	vmB := func(x uint64) uint64 { return x << uint(ne) }

	edgesWithinB := make([]int, 1<<uint(nb))
	for x := uint64(0); x < 1<<uint(nb); x++ {
		edgesWithinB[x] = p.mg.EdgesWithinMask(vmB(x))
	}
	s1base := make([]uint64, 1<<uint(n1+nb))
	for y1 := uint64(0); y1 < 1<<uint(n1); y1++ {
		for x := uint64(0); x < 1<<uint(nb); x++ {
			exp := p.mg.EdgesBetweenMasks(vmB(x), vmE1(y1)) + edgesWithinB[x]
			s1base[y1<<uint(nb)|x] = onePlusR[exp]
		}
	}
	s2 := matrix.New(f, 1<<uint(n2), 1<<uint(nb))
	for y2 := uint64(0); y2 < 1<<uint(n2); y2++ {
		e2within := p.mg.EdgesWithinMask(vmE2(y2))
		for x := uint64(0); x < 1<<uint(nb); x++ {
			exp := p.mg.EdgesBetweenMasks(vmB(x), vmE2(y2)) + e2within
			s2.Set(int(y2), int(x), onePlusR[exp])
		}
	}
	m2t := make([]*matrix.Matrix, nb+1)
	colsByJ := make([][]uint64, nb+1)
	for j := 0; j <= nb; j++ {
		m2 := matrix.New(f, s2.R, s2.C)
		for x := uint64(0); x < 1<<uint(nb); x++ {
			if bits.OnesCount64(x) != j {
				continue
			}
			colsByJ[j] = append(colsByJ[j], x)
			for y2 := 0; y2 < s2.R; y2++ {
				m2.Set(y2, int(x), s2.At(y2, int(x)))
			}
		}
		m2t[j] = m2.Transpose()
	}
	f12 := make([]uint64, 1<<uint(n1+n2))
	for y1 := uint64(0); y1 < 1<<uint(n1); y1++ {
		for y2 := uint64(0); y2 < 1<<uint(n2); y2++ {
			exp := p.mg.EdgesBetweenMasks(vmE1(y1), vmE2(y2)) + p.mg.EdgesWithinMask(vmE1(y1))
			f12[y1<<uint(n2)|y2] = onePlusR[exp]
		}
	}
	return &compiled{p: p, f: f, s1base: s1base, m2t: m2t, colsByJ: colsByJ, f12: f12}
}

// EvaluateBlock implements plan.Plan.
func (c *compiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	out := make([][]uint64, len(xs))
	for xi, x0 := range xs {
		row, err := c.at(x0)
		if err != nil {
			return nil, err
		}
		out[xi] = row
	}
	return out, nil
}

// at is the row at x0: the §10.2 node function through the template's
// sum-product. Vertex layout: E1 occupies vertices 0..n1-1, E2 occupies
// n1..ne-1, B occupies ne..n-1. The cross-cut aggregation
// t_{E1,E2} = f̂_{B,E1} · f̂_{B,E2}ᵀ is |B|+1 scalar matrix products, one
// per B-subset cardinality class (the w_B exponent), each of shape
// 2^{|E1|} × 2^{|B|} × 2^{|E2|}.
func (c *compiled) at(x0 uint64) ([]uint64, error) {
	f, p := c.f, c.p
	ring := p.split.Ring(f)
	ne := len(p.split.E)
	nb := len(p.split.B)
	n1, n2 := p.n1, p.n2
	xp := p.split.NewXPowers(f, x0)
	// Per-cardinality products T_j = S1|_j · (S2|_j)ᵀ with
	// S1[Y1][X] = s1base[Y1][X] · x0^{ΣX}: only the popcount-j columns of
	// S1 are populated.
	tj := make([]*matrix.Matrix, nb+1)
	for j := 0; j <= nb; j++ {
		m1 := matrix.New(f, 1<<uint(n1), 1<<uint(nb))
		for _, x := range c.colsByJ[j] {
			xPow := xp.ForMask(x)
			for y1 := uint64(0); y1 < 1<<uint(n1); y1++ {
				m1.Set(int(y1), int(x), f.Mul(c.s1base[y1<<uint(nb)|x], xPow))
			}
		}
		tj[j] = m1.Mul(c.m2t[j])
	}
	// g0(Y1 ∪ Y2) = f_{E1,E2}(Y1,Y2) · Σ_j T_j[Y1][Y2] w_E^{|Y|} w_B^j.
	g := make([]bipoly.Poly, 1<<uint(ne))
	for y1 := uint64(0); y1 < 1<<uint(n1); y1++ {
		for y2 := uint64(0); y2 < 1<<uint(n2); y2++ {
			f12 := c.f12[y1<<uint(n2)|y2]
			wE := bits.OnesCount64(y1) + bits.OnesCount64(y2)
			poly := ring.Zero()
			for j := 0; j <= nb; j++ {
				cv := f.Mul(f12, tj[j].At(int(y1), int(y2)))
				poly = ring.AddInPlace(poly, ring.Monomial(wE, j, cv))
			}
			g[y1|y2<<uint(n1)] = poly
		}
	}
	// g = zeta(g0) over the E lattice.
	yates.Zeta(ne, g, ring.AddInPlace)
	return p.split.EvaluateAll(ring, g, p.n+1)
}
