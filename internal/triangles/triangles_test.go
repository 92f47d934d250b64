package triangles

import (
	"context"
	"math"
	"math/big"
	"sync"
	"testing"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/plan"
	"camelot/internal/tensor"
	"camelot/internal/yates"
)

func TestCountNaiveKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"K3", graph.Complete(3), 1},
		{"K5", graph.Complete(5), 10},
		{"K10", graph.Complete(10), 120},
		{"C6", graph.Cycle(6), 0},
		{"petersen", graph.Petersen(), 0},
		{"K33", graph.CompleteBipartite(3, 3), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CountNaive(tt.g); got != tt.want {
				t.Fatalf("got %d, want %d", got, tt.want)
			}
		})
	}
}

func TestAllCountersAgree(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp20":   graph.Gnp(20, 0.3, 1),
		"gnp33":   graph.Gnp(33, 0.2, 2),
		"dense16": graph.Gnp(16, 0.7, 3),
		"k12":     graph.Complete(12),
		"sparse":  graph.Gnp(40, 0.05, 4),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			want := CountNaive(g)
			if got := CountEdgeIterator(g); got != want {
				t.Errorf("edge iterator = %d, want %d", got, want)
			}
			for bname, base := range map[string]tensor.Decomposition{
				"strassen": tensor.Strassen(), "trivial2": tensor.Trivial(2),
			} {
				got, err := CountSplitSparse(g, base, 4)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("split/sparse(%s) = %d, want %d", bname, got, want)
				}
			}
			got, err := CountAYZ(g, tensor.Strassen(), 4)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("AYZ = %d, want %d", got, want)
			}
		})
	}
}

func TestCountSplitSparseEmptyAndTiny(t *testing.T) {
	if got, err := CountSplitSparse(graph.New(5), tensor.Strassen(), 2); err != nil || got != 0 {
		t.Fatalf("empty graph: got %d, %v", got, err)
	}
	if got, err := CountAYZ(graph.New(4), tensor.Strassen(), 2); err != nil || got != 0 {
		t.Fatalf("AYZ empty: got %d, %v", got, err)
	}
	g := graph.Complete(3)
	if got, err := CountSplitSparse(g, tensor.Strassen(), 1); err != nil || got != 1 {
		t.Fatalf("K3: got %d, %v", got, err)
	}
}

// runCount runs the protocol on p under opts, checks that the count
// recovered from the proof is the naive one, and returns the report.
func runCount(t *testing.T, p *Problem, opts core.Options) *core.Report {
	t.Helper()
	proof, rep, err := core.Run(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Recover(proof)
	if err != nil {
		t.Fatal(err)
	}
	if want := CountNaive(p.g); got.Cmp(new(big.Int).SetUint64(want)) != 0 {
		t.Fatalf("recovered %v, want %d", got, want)
	}
	return rep
}

func TestCamelotTrianglesEndToEnd(t *testing.T) {
	p, err := NewProblem(graph.Gnp(24, 0.25, 7), tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if rep := runCount(t, p, core.Options{Nodes: 4, FaultTolerance: 2, Seed: 3}); !rep.Verified {
		t.Fatal("not verified")
	}
}

func TestCamelotTrianglesWithByzantineNode(t *testing.T) {
	p, err := NewProblem(graph.Gnp(20, 0.3, 9), tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	// Geometry: make the fault tolerance cover one full node block.
	d := p.Degree()
	k := 6
	f := 0
	for {
		e := d + 1 + 2*f
		if f >= (e+k-1)/k {
			break
		}
		f++
	}
	rep := runCount(t, p, core.Options{
		Nodes: k, FaultTolerance: f, Adversary: core.Adversary{Seed: 4, Equivocators: []int{1}},
		Seed: 8,
	})
	for _, s := range rep.SuspectNodes {
		if s != 1 {
			t.Fatalf("honest node %d implicated", s)
		}
	}
}

func TestProblemGeometryScalesWithSparsity(t *testing.T) {
	// Theorem 3: proof size ~ R/m — a denser graph (larger m) must give a
	// smaller or equal proof for the same n.
	sparse := graph.Gnp(32, 0.05, 1)
	dense := graph.Gnp(32, 0.6, 1)
	ps, err := NewProblem(sparse, tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	pd, err := NewProblem(dense, tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if pd.nParts > ps.nParts {
		t.Fatalf("dense graph proof (%d parts) larger than sparse (%d parts)", pd.nParts, ps.nParts)
	}
}

// TestDeltaMonotone reads the threshold CountAYZ splits at (Theorem 5):
// Δ = ⌈m^{(ω-1)/(ω+1)}⌉ with ω = log₂7, so Δ^{ω+1} >= m^{ω-1} and one
// less is not, at least 1, and never shrinking as edges are added.
func TestDeltaMonotone(t *testing.T) {
	for m, want := range map[int]int{1: 1, 2: 2, 10: 3, 100: 9, 1000: 27, 100000: 237} {
		if got := delta(m); got != want {
			t.Errorf("Δ(%d) = %d, want %d", m, got, want)
		}
	}
	prev := 1
	for m := 1; m <= 5000; m++ {
		d := delta(m)
		if d < prev {
			t.Fatalf("Δ(%d) = %d below Δ(%d) = %d", m, d, m-1, prev)
		}
		lhs := math.Pow(float64(d), OmegaStrassen+1)
		below := math.Pow(float64(d-1), OmegaStrassen+1)
		rhs := math.Pow(float64(m), OmegaStrassen-1)
		if lhs < rhs*(1-1e-9) || d > 1 && below >= rhs*(1+1e-9) {
			t.Fatalf("Δ(%d) = %d is not ⌈m^{(ω-1)/(ω+1)}⌉", m, d)
		}
		prev = d
	}
}

func TestAYZOnStar(t *testing.T) {
	// Star graph: hub is high-degree for large n, no triangles at all.
	g := graph.CompleteBipartite(1, 50)
	got, err := CountAYZ(g, tensor.Strassen(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("star has %d triangles?", got)
	}
	// Wheel: hub + cycle => n triangles.
	w := graph.Cycle(12)
	wg := graph.New(13)
	for _, e := range w.Edges() {
		wg.AddEdge(e[0], e[1])
	}
	for v := 0; v < 12; v++ {
		wg.AddEdge(v, 12)
	}
	got, err = CountAYZ(wg, tensor.Strassen(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := CountNaive(wg); got != want {
		t.Fatalf("wheel: AYZ=%d naive=%d", got, want)
	}
}

func BenchmarkSplitSparse64(b *testing.B) {
	g := graph.Gnp(64, 0.15, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountSplitSparse(g, tensor.Strassen(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCamelotTrianglesBatchEndToEnd(t *testing.T) {
	// Full protocol through the compiled plan's block path, checked
	// against the naive count.
	p, err := NewProblem(graph.Gnp(30, 0.3, 8), tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if rep := runCount(t, p, core.Options{Nodes: 3, Seed: 5}); !rep.Verified {
		t.Fatal("not verified")
	}
}

// referenceP is P(z0) at each of zs the long way, sharing no code with
// the evaluator but the one-shot yates.Transform (itself held to the
// dense Kronecker product): the one-shot Lagrange basis Φ(z0), the
// weights α = (Aᵀ)^{⊗(T-ℓ)} Φ(z0) of every low index, each entry
// scattered on its own at its high index with weight α_low·value, each
// side through A^{⊗ℓ}, then the scalar sum Σ_v A_v·B_v·C_v over all
// R0^ℓ products.
func referenceP(f ff.Field, entries []yates.Entry, dc tensor.Decomposition, ell int, zs []uint64) []uint64 {
	var bases [3][]uint64
	bases[0], bases[1], bases[2] = dc.SparseBases(f)
	t, s := dc.R0, dc.N0*dc.N0
	nParts, sLow, sHigh := 1, 1, 1
	for i := 0; i < dc.T; i++ {
		if i < ell {
			sHigh *= s
		} else {
			nParts, sLow = nParts*t, sLow*s
		}
	}
	out := make([]uint64, len(zs))
	for i, z0 := range zs {
		phi := f.LagrangeAtOneBased(nParts, z0)
		var sides [3][]uint64
		for j, base := range bases {
			baseT := make([]uint64, s*t)
			for r := 0; r < t; r++ {
				for c := 0; c < s; c++ {
					baseT[c*t+r] = base[r*s+c]
				}
			}
			alpha := yates.Transform(f, baseT, s, t, dc.T-ell, phi)
			xl := make([]uint64, sHigh)
			for _, e := range entries {
				h := e.Index / sLow
				xl[h] = f.Add(xl[h], f.Mul(alpha[e.Index%sLow], e.Value))
			}
			sides[j] = yates.Transform(f, base, t, s, ell, xl)
		}
		for v := range sides[0] {
			out[i] = f.Add(out[i], f.Mul(sides[0][v], f.Mul(sides[1][v], sides[2][v])))
		}
	}
	return out
}

func TestBlockEvaluatorMatchesReference(t *testing.T) {
	// The block Frobenius product against the reference at every ℓ the
	// geometry allows — ℓ above the cut runs the Yates levels above the
	// blocks — over a small prime, the 2^61 floor and the largest prime
	// below 2^62. On the last, every entry is −1 = q−1: the scattered
	// inputs are then sums of q−1 and the block products sit near 2^124,
	// where the kernel's carry word fills. At grid points z0 ∈ [1, R/m']
	// the block values must also sum to the trace, 6·triangles·v³.
	top := topPrime()
	for _, tc := range []struct {
		name string
		base tensor.Decomposition
		g    *graph.Graph
	}{
		{"strassen", tensor.Strassen(), graph.Gnp(72, 0.3, 11)}, // T = 7
		{"trivial2", tensor.Trivial(2), graph.Gnp(40, 0.3, 12)}, // T = 6
		{"trivial3", tensor.Trivial(3), graph.Gnp(30, 0.3, 13)}, // T = 4
	} {
		dc, _ := tc.base.ForSize(tc.g.N())
		trace := 6 * CountNaive(tc.g)
		for ell := 0; ell <= dc.T; ell++ {
			nParts := 1
			for i := ell; i < dc.T; i++ {
				nParts *= dc.R0
			}
			for _, q := range []uint64{ff.NextPrime(uint64(3*nParts + 2)), ff.NextPrime(1 << 61), top} {
				f := ff.Must(q)
				value := uint64(1)
				if q == top {
					value = q - 1
				}
				entries := adjacencyEntries(tc.g, dc)
				for i := range entries {
					entries[i].Value = value
				}
				tr, err := newSparseTriple(f, entries, dc, ell)
				if err != nil {
					t.Fatal(err)
				}
				e := tr.evaluator()
				points := []uint64{1, uint64(nParts), 0, uint64(nParts) + 1, q - 1, 1 + uint64(ell)*977}
				for i, want := range referenceP(f, entries, dc, ell, points) {
					if got := e.atBasis(e.ea.Basis(points[i])); got != want {
						t.Fatalf("%s ℓ=%d q=%d z0=%d: block %d, reference %d", tc.name, ell, q, points[i], got, want)
					}
				}
				if nParts > 512 {
					continue
				}
				sum := uint64(0)
				for z0 := uint64(1); z0 <= uint64(nParts); z0++ {
					sum = f.Add(sum, e.atBasis(e.ea.Basis(z0)))
				}
				want := f.Mul(f.ReduceU(trace), f.Mul(value, f.Mul(value, value)))
				if sum != want {
					t.Fatalf("%s ℓ=%d q=%d: grid sum %d, want trace %d", tc.name, ell, q, sum, want)
				}
			}
		}
	}
}

// evalBoundTriple is the eval_bound geometry, n=128 and p=0.2 (T = 7),
// compiled over a 2^61-floor prime with ℓ inner levels.
func evalBoundTriple(tb testing.TB, ell int) *sparseTriple {
	dc, _ := tensor.Strassen().ForSize(128)
	tr, err := newSparseTriple(ff.Must(ff.NextPrime(1<<61)), adjacencyEntries(graph.Gnp(128, 0.2, 1), dc), dc, ell)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestTriangleEvaluatorAllocatesNothing(t *testing.T) {
	// A built evaluator's point — basis, three scatters, the levels above
	// the blocks (ℓ = 6), the block kernel — allocates nothing.
	for _, ell := range []int{5, 6} {
		e := evalBoundTriple(t, ell).evaluator()
		z0 := uint64(1000)
		if n := testing.AllocsPerRun(10, func() { z0++; e.atBasis(e.ea.Basis(z0)) }); n != 0 {
			t.Fatalf("ℓ=%d: a point allocates %v times, want 0", ell, n)
		}
	}
}

func TestTrianglePlanConcurrent(t *testing.T) {
	// One compiled plan, eight goroutines: with -race this pins that the
	// plan's shared tables and kernels are only read, and every goroutine
	// gets the serial values — the block plan with and without levels
	// above the blocks, and the group-tensor plan.
	gt := evalBoundTriple(t, 5).tensorPlan()
	if gt == nil {
		t.Fatal("eval_bound has no group-tensor plan")
	}
	plans := map[string]plan.Plan{"ℓ=5": evalBoundTriple(t, 5), "ℓ=6": evalBoundTriple(t, 6), "tensor": gt}
	for name, pl := range plans {
		xs := []uint64{1, 2, 3, 48, 49, 50, 1 << 40}
		want, err := pl.EvaluateBlock(xs)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := pl.EvaluateBlock(xs)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if got[i][0] != want[i][0] {
						t.Errorf("%s x=%d: %d, serial %d", name, xs[i], got[i][0], want[i][0])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkTriangleAt times one point of a compiled triangle plan, in
// blocks of 32 consecutive off-grid points as a node evaluates them, at
// the eval_bound, serve_cold and ctrl_workers geometries (group tensor)
// and at ℓ = 6 (n=256, p=0.3, block product), where blockSide was
// chosen. The ns/point metric is the one to compare.
func BenchmarkTriangleAt(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		p    float64
	}{
		{"eval_bound_n128", 128, 0.2},
		{"serve_cold_n36", 36, 0.3},
		{"ctrl_workers_n48", 48, 0.2},
		{"ell6_n256", 256, 0.3},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := NewProblem(graph.Gnp(c.n, c.p, 1), tensor.Strassen())
			if err != nil {
				b.Fatal(err)
			}
			pl, err := p.Compile(ff.Must(ff.NextPrime(1 << 61)))
			if err != nil {
				b.Fatal(err)
			}
			xs := make([]uint64, 32)
			for i := range xs {
				xs[i] = uint64(p.nParts + 1 + i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.EvaluateBlock(xs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/point")
		})
	}
}

func TestSpreadTablesMatchPairIndex(t *testing.T) {
	// The per-vertex tables against tensor's digit loop: every entry of a
	// complete graph sits at PairIndex(u, v), and every block side's
	// places put the in-block pair index of (row, col) at row·side + col
	// (α, γ) and col·side + row (β) — at sizes that are and are not
	// powers of N0.
	for _, base := range []tensor.Decomposition{tensor.Strassen(), tensor.Trivial(3)} {
		for _, n := range []int{5, 20, 48, 128} {
			dc, _ := base.ForSize(n)
			g := graph.Complete(n)
			entries := adjacencyEntries(g, dc)
			for i, e := range g.Edges() {
				if got, want := entries[2*i].Index, dc.PairIndex(e[0], e[1]); got != want {
					t.Fatalf("N0=%d n=%d: entry (%d,%d) at %d, want %d", dc.N0, n, e[0], e[1], got, want)
				}
				if got, want := entries[2*i+1].Index, dc.PairIndex(e[1], e[0]); got != want {
					t.Fatalf("N0=%d n=%d: entry (%d,%d) at %d, want %d", dc.N0, n, e[1], e[0], got, want)
				}
			}
			for c, side := 0, 1; c <= dc.T && side <= blockSide; c, side = c+1, side*dc.N0 {
				rowMajor, colMajor := blockPlaces(dc, side)
				for row := 0; row < side; row++ {
					for col := 0; col < side; col++ {
						j := dc.PairIndex(row, col)
						if j >= side*side || rowMajor[j] != row*side+col || colMajor[j] != col*side+row {
							t.Fatalf("N0=%d n=%d side=%d: (%d,%d) at pair index %d placed wrong", dc.N0, n, side, row, col, j)
						}
					}
				}
			}
		}
	}
}

// BenchmarkTriangleCompile times the per-prime set-up over a 2^61-floor
// prime at the serve_cold (n=36, p=0.3), ctrl_workers (n=48, p=0.2) and
// eval_bound (n=128, p=0.2) geometries: a node's Compile, the
// group-tensor build alone on a prebuilt triple, and the verifier's
// one-point Evaluate, which rebuilds the same tables and then evaluates
// once. Run it with -benchmem.
func BenchmarkTriangleCompile(b *testing.B) {
	q := ff.NextPrime(1 << 61)
	for _, c := range []struct {
		name string
		n    int
		p    float64
	}{
		{"serve_cold_n36", 36, 0.3},
		{"ctrl_workers_n48", 48, 0.2},
		{"eval_bound_n128", 128, 0.2},
	} {
		p, err := NewProblem(graph.Gnp(c.n, c.p, 1), tensor.Strassen())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/compile", func(b *testing.B) {
			f := ff.Must(q)
			for b.Loop() {
				if _, err := p.Compile(f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/tensor", func(b *testing.B) {
			tr, err := newSparseTriple(ff.Must(q), adjacencyEntries(p.g, p.dc), p.dc, p.ell)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if newGroupTensor(tr) == nil {
					b.Fatal("no group tensor")
				}
			}
		})
		b.Run(c.name+"/evaluate", func(b *testing.B) {
			z0 := uint64(p.nParts)
			for b.Loop() {
				z0++
				if _, err := p.Evaluate(q, z0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
