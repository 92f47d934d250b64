package tutte

import (
	"context"
	"math/big"
	"sync/atomic"
	"testing"
	"time"

	"camelot/internal/core"
	"camelot/internal/graph"
)

// compute is the sequential driver the tests share: every line through
// core.Run under opts, one at a time.
func compute(ctx context.Context, mg *graph.Multigraph, opts core.Options) (*Result, error) {
	line := func(ctx context.Context, p *Problem) (*core.Proof, *core.Report, error) {
		return core.Run(ctx, p, opts)
	}
	return ComputeLines(ctx, mg, line, 1)
}

// tutteEqual compares coefficient matrices up to trailing zeros.
func tutteEqual(a, b [][]*big.Int) bool {
	coeff := func(m [][]*big.Int, i, j int) *big.Int {
		if i < len(m) && j < len(m[i]) {
			return m[i][j]
		}
		return big.NewInt(0)
	}
	rows := len(a)
	if len(b) > rows {
		rows = len(b)
	}
	for i := 0; i < rows; i++ {
		width := 0
		if i < len(a) {
			width = len(a[i])
		}
		if i < len(b) && len(b[i]) > width {
			width = len(b[i])
		}
		for j := 0; j < width; j++ {
			if coeff(a, i, j).Cmp(coeff(b, i, j)) != 0 {
				return false
			}
		}
	}
	return true
}

func TestDeletionContractionKnown(t *testing.T) {
	tests := []struct {
		name string
		mg   *graph.Multigraph
		want map[[2]int]int64 // (x-power, y-power) -> coefficient
	}{
		{"single edge (bridge)", edges(2, [2]int{0, 1}), map[[2]int]int64{{1, 0}: 1}},
		{"single loop", edges(1, [2]int{0, 0}), map[[2]int]int64{{0, 1}: 1}},
		{"two parallel edges", edges(2, [2]int{0, 1}, [2]int{0, 1}), map[[2]int]int64{{1, 0}: 1, {0, 1}: 1}},
		// Triangle: T = x^2 + x + y.
		{"triangle", edges(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}),
			map[[2]int]int64{{2, 0}: 1, {1, 0}: 1, {0, 1}: 1}},
		// C4: x^3 + x^2 + x + y.
		{"C4", edges(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{0, 3}),
			map[[2]int]int64{{3, 0}: 1, {2, 0}: 1, {1, 0}: 1, {0, 1}: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := DeletionContraction(tt.mg)
			for key, want := range tt.want {
				if key[0] >= len(got) || key[1] >= len(got[key[0]]) {
					t.Fatalf("missing coefficient x^%d y^%d", key[0], key[1])
				}
				if got[key[0]][key[1]].Cmp(big.NewInt(want)) != 0 {
					t.Fatalf("t_{%d,%d} = %v, want %d", key[0], key[1], got[key[0]][key[1]], want)
				}
			}
			// All other entries must be zero.
			for a := range got {
				for b := range got[a] {
					if _, ok := tt.want[[2]int{a, b}]; !ok && got[a][b].Sign() != 0 {
						t.Fatalf("unexpected t_{%d,%d} = %v", a, b, got[a][b])
					}
				}
			}
		})
	}
}

func edges(n int, es ...[2]int) *graph.Multigraph {
	mg := graph.NewMultigraph(n)
	for _, e := range es {
		mg.AddEdge(e[0], e[1])
	}
	return mg
}

func TestPottsBruteMatchesSubsetExpansion(t *testing.T) {
	// The Fortuin–Kasteleyn identity: Σ_σ Π(1+r[σe1=σe2]) = Σ_F t^{c(F)} r^{|F|}.
	for _, mg := range []*graph.Multigraph{
		graph.RandomMultigraph(4, 5, 1),
		graph.RandomMultigraph(5, 6, 2),
		graph.FromGraph(graph.Cycle(4)),
	} {
		for _, tv := range []int{1, 2, 3} {
			for _, rv := range []int64{1, 2} {
				if got, want := PottsBrute(mg, tv, rv), ZSubsets(mg, int64(tv), rv); got.Cmp(want) != 0 {
					t.Fatalf("n=%d m=%d t=%d r=%d: potts=%v subsets=%v", mg.N(), mg.M(), tv, rv, got, want)
				}
			}
		}
	}
}

func TestCamelotPottsValuesMatchBrute(t *testing.T) {
	mg := graph.RandomMultigraph(5, 6, 3)
	p, err := NewProblem(mg, 2)
	if err != nil {
		t.Fatal(err)
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("not verified")
	}
	vals, err := p.Values(proof)
	if err != nil {
		t.Fatal(err)
	}
	for tv := 1; tv <= mg.N()+1; tv++ {
		want := PottsBrute(mg, tv, 2)
		if vals[tv-1].Cmp(want) != 0 {
			t.Fatalf("Z(%d, 2) = %v, want %v", tv, vals[tv-1], want)
		}
	}
}

func TestComputeMatchesDeletionContraction(t *testing.T) {
	cases := map[string]*graph.Multigraph{
		"triangle":     edges(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}),
		"multi+loop":   edges(3, [2]int{0, 1}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 2}),
		"random(5,6)":  graph.RandomMultigraph(5, 6, 7),
		"disconnected": edges(4, [2]int{0, 1}, [2]int{2, 3}),
		"c5":           graph.FromGraph(graph.Cycle(5)),
	}
	for name, mg := range cases {
		t.Run(name, func(t *testing.T) {
			res, err := compute(context.Background(), mg, core.Options{Nodes: 2, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := DeletionContraction(mg)
			if !tutteEqual(res.T, want) {
				t.Fatalf("Tutte mismatch:\ngot  %v\nwant %v", res.T, want)
			}
		})
	}
}

func TestTutteClassicalIdentities(t *testing.T) {
	if testing.Short() {
		t.Skip("Tutte identity suite in -short mode")
	}
	// K4: spanning trees T(1,1) = 16, forests T(2,1) = 61, 2^m = T(2,2).
	mg := graph.FromGraph(graph.Complete(4))
	res, err := compute(context.Background(), mg, core.Options{Nodes: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := Eval(res.T, 1, 1); got.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("K4 spanning trees = %v, want 16", got)
	}
	if got := Eval(res.T, 2, 2); got.Cmp(big.NewInt(64)) != 0 {
		t.Fatalf("K4 T(2,2) = %v, want 2^6 = 64", got)
	}
}

func TestComputeEdgeless(t *testing.T) {
	mg := graph.NewMultigraph(3)
	res, err := compute(context.Background(), mg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// T = 1 for edgeless graphs.
	if got := Eval(res.T, 5, 7); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("edgeless T(5,7) = %v, want 1", got)
	}
}

func TestProblemValidation(t *testing.T) {
	mg := graph.NewMultigraph(3)
	if _, err := NewProblem(mg, 0); err == nil {
		t.Fatal("r = 0 must be rejected")
	}
	if _, err := NewProblem(graph.NewMultigraph(0), 1); err == nil {
		t.Fatal("empty graph must be rejected")
	}
}

func TestCamelotTutteWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injected Tutte in -short mode")
	}
	mg := graph.FromGraph(graph.Cycle(6))
	p, err := NewProblem(mg, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Degree()
	k := 4
	f := 0
	for {
		e := d + 1 + 2*f
		if f >= (e+k-1)/k {
			break
		}
		f++
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{
		Nodes: k, FaultTolerance: f, Adversary: core.Adversary{Seed: 2, Equivocators: []int{3}}, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := p.Values(proof)
	if err != nil {
		t.Fatal(err)
	}
	for tv := 1; tv <= mg.N()+1; tv++ {
		if want := PottsBrute(mg, tv, 1); vals[tv-1].Cmp(want) != 0 {
			t.Fatalf("Z(%d,1) = %v, want %v", tv, vals[tv-1], want)
		}
	}
	for _, s := range rep.SuspectNodes {
		if s != 3 {
			t.Fatalf("honest node %d implicated", s)
		}
	}
}

// TestComputeLinesBoundsInFlight is the regression test for the FK
// line-concurrency fix: however many lines a multigraph has, at most
// `concurrency` of them may be started (and therefore holding share
// buffers) at once. The driver used to pass m+1 here, which let peak
// memory scale with the edge count.
func TestComputeLinesBoundsInFlight(t *testing.T) {
	mg := graph.RandomMultigraph(4, 9, 5) // 10 FK lines
	const bound = 2
	var inFlight, maxSeen, started atomic.Int32
	line := func(ctx context.Context, p *Problem) (*core.Proof, *core.Report, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		started.Add(1)
		for {
			m := maxSeen.Load()
			if n <= m || maxSeen.CompareAndSwap(m, n) {
				break
			}
		}
		// Give overlapping starts a window to overlap: a sleep here is
		// load-bearing, it widens the race the bound must prevent.
		time.Sleep(2 * time.Millisecond)
		return core.Run(ctx, p, core.Options{})
	}
	res, err := ComputeLines(context.Background(), mg, line, bound)
	if err != nil {
		t.Fatal(err)
	}
	if got := started.Load(); got != int32(mg.M()+1) {
		t.Fatalf("started %d lines, want %d", got, mg.M()+1)
	}
	if got := maxSeen.Load(); got > bound {
		t.Fatalf("%d lines in flight at once, bound %d", got, bound)
	}
	// And the capped computation still matches the classical recursion.
	if want := DeletionContraction(mg); !tutteEqual(res.T, want) {
		t.Fatal("bounded-concurrency Tutte result diverged from deletion-contraction")
	}
}
