package hamilton

// Compiled plans for the cycle and path problems: one strip kernel
// serves both. Each counts z-weighted walks that enter the graph on a
// first step, take a fixed number of steps inside it and leave on a last
// one. A cycle enters and leaves along the anchor's edges and takes n-2
// steps (the anchor stays a vertex of the walk, with z = 1); a path
// enters and leaves at every vertex and takes n-1 steps.
//
// As in permanent's sweep, a block's points are innermost: a walk row
// holds one vertex's counts at a strip of at most 64 points, so a step is
// one ff.AddVec per live in-edge and one ff.MulVecK per swept vertex,
// each over the strip. Under an enumerated suffix the vertices whose z
// is 0 are dropped with their edges, and the anchor and the enumerated
// vertices (z = 1) are never multiplied. The suffix sign is folded as
// acc ± walks and the prefix sign multiplied in once per point at the
// end: distributivity mod q makes the residues bit-identical to
// Evaluate's.
//
// Deliberately NOT shared with Evaluate, closedWalks or openWalks:
// verification re-evaluates through that per-point path, so a kernel bug
// fails verification instead of entering a proof (TestHamiltonVerifierIsSeparate
// in the root lint_test.go keeps the two apart). Compile hoists the
// in-neighbour lists and the Lagrange evaluator's fixed factors, both
// only read afterwards; all scratch comes from one pooled arena per
// EvaluateBlock call, so one plan serves concurrent chunk tasks.

import (
	"math/bits"
	"sync"

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

// walkPlan is the Plan of both problems for one prime. Vertices 0..lo-1
// have z = 1, vertices lo..lo+half-1 carry z = D(x) and the rest are
// enumerated, one suffix bit each.
type walkPlan struct {
	f     ff.Field
	le    *ff.LagrangeEvaluator // grid 0..2^half-1
	in    [][]int32
	lo    int
	half  int
	rest  int
	ends  uint64 // vertices a walk's first step may reach and its last leave
	steps int    // steps between the first and the last
}

// Compile implements plan.Compiler.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) {
	w := &walkPlan{
		f: f, le: f.NewLagrangeEvaluatorZeroBased(1 << uint(p.half)), in: inNeighbours(p.g),
		lo: 1, half: p.half, rest: p.rest, steps: p.n - 2,
	}
	// The graph is undirected: the anchor's in-edges are its out-edges.
	for _, u := range w.in[0] {
		w.ends |= 1 << u
	}
	return w, nil
}

// Compile implements plan.Compiler.
func (p *PathProblem) Compile(f ff.Field) (plan.Plan, error) {
	return &walkPlan{
		f: f, le: f.NewLagrangeEvaluatorZeroBased(1 << uint(p.half)), in: inNeighbours(p.g),
		half: p.half, rest: p.rest, ends: uint64(1)<<p.n - 1, steps: p.n - 1,
	}, nil
}

// strip is the most points a walk row holds: the 2n rows of a strip
// (2n·strip words, 20 KB at n = 20) stay in L1 across the steps that
// reread them.
const strip = 64

// arenas recycles EvaluateBlock's arenas across calls and plans. A
// service compiles a plan per proof and a node evaluates its range in a
// few blocks, so an arena allocated per call would be most of the bytes
// a block allocates.
var arenas = sync.Pool{New: func() any { return new([]uint64) }}

// EvaluateBlock implements plan.Plan.
func (w *walkPlan) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	totals := make([]uint64, len(xs))
	// Equal strips, so the arena is no larger than the block needs and no
	// strip is a short tail.
	strips := max(1, (len(xs)+strip-1)/strip)
	ms := (len(xs) + strips - 1) / strips
	// One arena for every strip: D(x) rows, then the run kernel's scratch,
	// whose words the prefix signs and the two generations of walk rows
	// take over once D(x) is computed.
	words := w.half*ms + max(w.le.SweepScratch(ms), (2*len(w.in)+1)*ms)
	arena := arenas.Get().(*[]uint64)
	defer arenas.Put(arena)
	if cap(*arena) < words {
		*arena = make([]uint64, words)
	}
	buf := (*arena)[:words]
	for lo := 0; lo < len(xs); lo += ms {
		hi := min(lo+ms, len(xs))
		w.evaluateStrip(xs[lo:hi], totals[lo:hi], buf)
	}
	return plan.Rows(totals, 1), nil
}

// evaluateStrip writes P(x) for the points xs (at most strip of them)
// into totals, which must be zero, working in buf.
func (w *walkPlan) evaluateStrip(xs, totals, buf []uint64) {
	f, n, m := w.f, len(w.in), len(xs)
	k := f.Kernel()
	z := buf[:w.half*m]
	buf = buf[w.half*m:]
	w.le.BitSweepBlock(z, xs, buf)
	signP, cur, next := buf[:m], buf[m:(n+1)*m], buf[(n+1)*m:(2*n+1)*m]
	// signP[xi] = (-1)^{#z variables} Π_j (1-2z_j(x_xi)).
	sign0 := uint64(1)
	if (w.half+w.rest)%2 == 1 {
		sign0 = f.Neg(sign0)
	}
	for xi := range signP {
		signP[xi] = sign0
	}
	for j := 0; j < w.half; j++ {
		for xi, zv := range z[j*m : (j+1)*m] {
			signP[xi] = ff.MulK(signP[xi], f.Sub(1, f.Add(zv, zv)), k)
		}
	}
	fixed := uint64(1)<<w.lo - 1
	swept := (uint64(1)<<w.half - 1) << w.lo
	for suffix := uint64(0); suffix < 1<<w.rest; suffix++ {
		active := fixed | swept | suffix<<(w.lo+w.half)
		// The first step: a walk enters each vertex v of ends with weight
		// z_v. live is the set of vertices whose row holds walks.
		live := active & w.ends
		for b := live; b != 0; b &= b - 1 {
			v := bits.TrailingZeros64(b)
			dst := cur[v*m : (v+1)*m]
			if swept>>v&1 == 1 {
				copy(dst, z[(v-w.lo)*m:(v-w.lo+1)*m])
			} else {
				for xi := range dst {
					dst[xi] = 1
				}
			}
		}
		for s := 0; s < w.steps; s++ {
			var reached uint64
			for b := active; b != 0; b &= b - 1 {
				v := bits.TrailingZeros64(b)
				dst := next[v*m : (v+1)*m]
				first := true
				for _, u := range w.in[v] {
					if live>>u&1 == 0 {
						continue
					}
					src := cur[int(u)*m : int(u+1)*m]
					if first {
						copy(dst, src)
						first = false
					} else {
						f.AddVec(dst, dst, src)
					}
				}
				if first {
					continue // no walk reaches v
				}
				if swept>>v&1 == 1 {
					ff.MulVecK(dst, dst, z[(v-w.lo)*m:(v-w.lo+1)*m], k)
				}
				reached |= 1 << v
			}
			cur, next, live = next, cur, reached
		}
		// The last step leaves every live vertex of ends; the suffix sign
		// (-1)^{|suffix|} decides whether the walks add or subtract.
		odd := bits.OnesCount64(suffix)%2 == 1
		for b := live & w.ends; b != 0; b &= b - 1 {
			u := bits.TrailingZeros64(b)
			if odd {
				f.SubVec(totals, totals, cur[u*m:(u+1)*m])
			} else {
				f.AddVec(totals, totals, cur[u*m:(u+1)*m])
			}
		}
	}
	ff.MulVecK(totals, totals, signP, k)
}
