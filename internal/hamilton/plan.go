package hamilton

// Compiled plans for the cycle and path problems. The walk kernels
// factor the z-indicator out of the inner product — next[v] =
// z_v · Σ_{u : a_uv = 1} vec[u] distributes exactly over Z_q, so the
// compiled sweep drops the per-edge multiply of closedWalks/openWalks
// while producing bit-identical residues. Compile additionally hoists
// the adjacency structure as in-neighbour lists and the Lagrange
// evaluator's fixed factors, both only read afterwards; D(x) for the
// whole block comes from ff's run kernel and all walk scratch is per
// EvaluateBlock call, so one plan serves concurrent chunk tasks.

import (
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/plan"
)

// inNeighbours lists, for each vertex v, the vertices u with a_uv = 1.
func inNeighbours(g *graph.Graph) [][]int32 {
	n := g.N()
	adj := g.AdjacencyMatrix()
	in := make([][]int32, n)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if adj[u*n+v] == 1 {
				in[v] = append(in[v], int32(u))
			}
		}
	}
	return in
}

// walkScratch carries the per-call buffers shared by every point and
// suffix of one EvaluateBlock invocation.
type walkScratch struct {
	z    []uint64
	vec  []uint64
	next []uint64
}

func newWalkScratch(n int) *walkScratch {
	return &walkScratch{
		z:    make([]uint64, n),
		vec:  make([]uint64, n),
		next: make([]uint64, n),
	}
}

// step advances the z-weighted walk vector one step using the factored
// kernel: next[v] = z_v · Σ_{u ∈ in(v)} vec[u]. Distributivity mod q
// makes this bit-identical to the per-edge accumulation in
// closedWalks/openWalks.
func (ws *walkScratch) step(f ff.Field, in [][]int32) {
	for v := range ws.next {
		zv := ws.z[v]
		if zv == 0 {
			ws.next[v] = 0
			continue
		}
		s := uint64(0)
		for _, u := range in[v] {
			s = f.Add(s, ws.vec[u])
		}
		ws.next[v] = f.Mul(zv, s)
	}
	ws.vec, ws.next = ws.next, ws.vec
}

// compiled is the Hamiltonian-cycle Plan for one prime.
type compiled struct {
	p  *Problem
	f  ff.Field
	in [][]int32
	le *ff.LagrangeEvaluator // grid 0..2^half-1
}

// Compile implements plan.Compiler.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) {
	return &compiled{p: p, f: f, in: inNeighbours(p.g), le: f.NewLagrangeEvaluatorZeroBased(1 << uint(p.half))}, nil
}

// EvaluateBlock implements plan.Plan.
func (c *compiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	f, p, n, m := c.f, c.p, c.p.n, len(xs)
	swept := make([]uint64, p.half*m)
	c.le.BitSweepBlock(swept, xs, make([]uint64, c.le.SweepScratch(m)))
	ws := newWalkScratch(n)
	totals := make([]uint64, m)
	for xi := range xs {
		ws.z[0] = 1
		for j := 0; j < p.half; j++ {
			ws.z[1+j] = swept[j*m+xi]
		}
		signP := uint64(1)
		if (n-1)%2 == 1 {
			signP = f.Neg(signP)
		}
		for j := 0; j < p.half; j++ {
			signP = f.Mul(signP, f.Sub(1, f.Mul(2%f.Q, ws.z[1+j])))
		}
		total := uint64(0)
		for suffix := uint64(0); suffix < 1<<uint(p.rest); suffix++ {
			ones := 0
			for j := 0; j < p.rest; j++ {
				if suffix&(1<<uint(j)) != 0 {
					ws.z[1+p.half+j] = 1
					ones++
				} else {
					ws.z[1+p.half+j] = 0
				}
			}
			sign := signP
			if ones%2 == 1 {
				sign = f.Neg(sign)
			}
			if sign == 0 {
				continue
			}
			for v := range ws.vec {
				ws.vec[v] = 0
			}
			ws.vec[0] = 1
			for step := 0; step < n; step++ {
				ws.step(f, c.in)
			}
			total = f.Add(total, f.Mul(sign, ws.vec[0]))
		}
		totals[xi] = total
	}
	return plan.Rows(totals, 1), nil
}

// compiledPath is the Hamiltonian-path Plan for one prime.
type compiledPath struct {
	p  *PathProblem
	f  ff.Field
	in [][]int32
	le *ff.LagrangeEvaluator // grid 0..2^half-1
}

// Compile implements plan.Compiler.
func (p *PathProblem) Compile(f ff.Field) (plan.Plan, error) {
	return &compiledPath{p: p, f: f, in: inNeighbours(p.g), le: f.NewLagrangeEvaluatorZeroBased(1 << uint(p.half))}, nil
}

// EvaluateBlock implements plan.Plan.
func (c *compiledPath) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	f, p, n, m := c.f, c.p, c.p.n, len(xs)
	swept := make([]uint64, p.half*m)
	c.le.BitSweepBlock(swept, xs, make([]uint64, c.le.SweepScratch(m)))
	ws := newWalkScratch(n)
	totals := make([]uint64, m)
	for xi := range xs {
		for j := 0; j < p.half; j++ {
			ws.z[j] = swept[j*m+xi]
		}
		signP := uint64(1)
		if n%2 == 1 {
			signP = f.Neg(signP)
		}
		for j := 0; j < p.half; j++ {
			signP = f.Mul(signP, f.Sub(1, f.Mul(2%f.Q, ws.z[j])))
		}
		total := uint64(0)
		for suffix := uint64(0); suffix < 1<<uint(p.rest); suffix++ {
			ones := 0
			for j := 0; j < p.rest; j++ {
				if suffix&(1<<uint(j)) != 0 {
					ws.z[p.half+j] = 1
					ones++
				} else {
					ws.z[p.half+j] = 0
				}
			}
			sign := signP
			if ones%2 == 1 {
				sign = f.Neg(sign)
			}
			if sign == 0 {
				continue
			}
			copy(ws.vec, ws.z)
			for step := 0; step < n-1; step++ {
				ws.step(f, c.in)
			}
			acc := uint64(0)
			for _, v := range ws.vec {
				acc = f.Add(acc, v)
			}
			total = f.Add(total, f.Mul(sign, acc))
		}
		totals[xi] = total
	}
	return plan.Rows(totals, 1), nil
}
