package triangles

import (
	"context"
	"math"
	"math/big"
	"testing"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/tensor"
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

func TestCamelotTrianglesEndToEnd(t *testing.T) {
	g := graph.Gnp(24, 0.25, 7)
	want := CountNaive(g)
	p, err := NewProblem(g, tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{
		Nodes: 4, FaultTolerance: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("not verified")
	}
	got, err := p.Recover(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(new(big.Int).SetUint64(want)) != 0 {
		t.Fatalf("recovered %v, want %d", got, want)
	}
}

func TestCamelotTrianglesWithByzantineNode(t *testing.T) {
	g := graph.Gnp(20, 0.3, 9)
	want := CountNaive(g)
	p, err := NewProblem(g, tensor.Strassen())
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
	proof, rep, err := core.Run(context.Background(), p, core.Options{
		Nodes: k, FaultTolerance: f, Adversary: core.NewEquivocatingNodes(4, 1),
		Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Recover(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(new(big.Int).SetUint64(want)) != 0 {
		t.Fatalf("recovered %v, want %d", got, want)
	}
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

func TestEvaluateBlockMatchesEvaluate(t *testing.T) {
	// The compiled plan must be bit-identical to point-wise Evaluate
	// (the verification stage evaluates through Evaluate, so any
	// divergence would fail verification instead of corrupting the
	// proof silently). Both run one evaluator type; what differs is that
	// a block reuses its scratch from point to point while Evaluate
	// starts fresh — so this pins that nothing leaks between points.
	// Cover sparse and dense graphs, on- and off-grid points, and values
	// needing reduction mod q.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"sparse", graph.Gnp(48, 4.0/48, 3)},
		{"dense", graph.Gnp(20, 0.5, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewProblem(tc.g, tensor.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			q, err := core.ChoosePrimes(1, p.MinModulus(), 4)
			if err != nil {
				t.Fatal(err)
			}
			xs := make([]uint64, 0, 40)
			for x := uint64(0); x < 20; x++ {
				xs = append(xs, x)
			}
			xs = append(xs, uint64(p.nParts), uint64(p.nParts)+1, q[0]-1, q[0], q[0]+7)
			f, err := ff.New(q[0])
			if err != nil {
				t.Fatal(err)
			}
			pl, err := p.Compile(f)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := pl.EvaluateBlock(xs)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(xs) {
				t.Fatalf("EvaluateBlock returned %d rows, want %d", len(rows), len(xs))
			}
			for i, x := range xs {
				want, err := p.Evaluate(q[0], x)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows[i]) != 1 || rows[i][0] != want[0] {
					t.Fatalf("x=%d: block %v != point %v", x, rows[i], want)
				}
			}
		})
	}
}

func TestCamelotTrianglesBatchEndToEnd(t *testing.T) {
	// Full protocol through the compiled plan's block path, checked
	// against the naive count.
	g := graph.Gnp(30, 0.3, 8)
	p, err := NewProblem(g, tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("not verified")
	}
	count, err := p.Recover(proof)
	if err != nil {
		t.Fatal(err)
	}
	if want := CountNaive(g); count.Cmp(new(big.Int).SetUint64(want)) != 0 {
		t.Fatalf("count %v, want %d", count, want)
	}
}
