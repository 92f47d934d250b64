package tutte

import (
	"context"
	"math/big"
	"testing"

	"camelot/internal/chromatic"
	"camelot/internal/core"
	"camelot/internal/graph"
)

// TestChromaticFromTutteCrossValidation runs BOTH Camelot pipelines —
// Theorem 7 (Tutte via tripartite Potts) and Theorem 6 (chromatic via
// the independent-set template) — and checks they agree through the
// classical identity χ_G(t) = (-1)^{n-c} t^c T_G(1-t, 0). Two completely
// independent proof polynomials must produce the same numbers.
func TestChromaticFromTutteCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("double Camelot pipeline in -short mode")
	}
	for seed := int64(0); seed < 2; seed++ {
		g := graph.Gnp(6, 0.5, seed)
		mg := graph.FromGraph(g)
		res, err := compute(context.Background(), mg, core.Options{Nodes: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := chromatic.NewProblem(g)
		if err != nil {
			t.Fatal(err)
		}
		proof, _, err := core.Run(context.Background(), cp, core.Options{Nodes: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		chromVals, err := cp.Values(proof)
		if err != nil {
			t.Fatal(err)
		}
		comps := mg.Components(nil)
		for tv := int64(1); tv <= int64(g.N()+1); tv++ {
			fromTutte := ChromaticAt(res.T, g.N(), comps, tv)
			if fromTutte.Cmp(chromVals[tv-1]) != 0 {
				t.Fatalf("seed %d t=%d: tutte-route %v, chromatic-route %v",
					seed, tv, fromTutte, chromVals[tv-1])
			}
		}
	}
}

func TestFlowPolynomialKnown(t *testing.T) {
	// Flow polynomial of C_n is (t-1): exactly t-1 nowhere-zero Z_t flows.
	mg := graph.FromGraph(graph.Cycle(5))
	res, err := compute(context.Background(), mg, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for tv := int64(2); tv <= 5; tv++ {
		got := FlowAt(res.T, 5, 5, 1, tv)
		if got.Cmp(big.NewInt(tv-1)) != 0 {
			t.Fatalf("C5 flow at %d = %v, want %d", tv, got, tv-1)
		}
	}
	// Trees have no nowhere-zero flows.
	tree := graph.FromGraph(graph.Path(4))
	resT, err := compute(context.Background(), tree, core.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := FlowAt(resT.T, 4, 3, 1, 3); got.Sign() != 0 {
		t.Fatalf("tree flow = %v, want 0", got)
	}
}

func TestSpecializationCounts(t *testing.T) {
	// K4: 16 spanning trees, 24 acyclic orientations (= 4! since K4 has
	// one linear order per orientation), 38 forests.
	mg := graph.FromGraph(graph.Complete(4))
	res, err := compute(context.Background(), mg, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := SpanningTrees(res.T); got.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("spanning trees = %v, want 16", got)
	}
	if got := AcyclicOrientations(res.T); got.Cmp(big.NewInt(24)) != 0 {
		t.Fatalf("acyclic orientations = %v, want 24", got)
	}
	if got := Forests(res.T); got.Cmp(big.NewInt(38)) != 0 {
		t.Fatalf("forests = %v, want 38", got)
	}
}

func TestReliabilityNumerator(t *testing.T) {
	// Two parallel edges between two vertices: R(p) = 1-(1-p)^2 = 2p - p².
	mg := graph.NewMultigraph(2)
	mg.AddEdge(0, 1)
	mg.AddEdge(0, 1)
	res, err := compute(context.Background(), mg, core.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ReliabilityNumerator(res.Z, mg.M())
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 2, -1}
	for k, w := range want {
		if rel[k].Cmp(big.NewInt(w)) != 0 {
			t.Fatalf("rel coeff p^%d = %v, want %d", k, rel[k], w)
		}
	}
	// Reliability of a tree path: R(p) = p^m (all edges must survive).
	tree := graph.FromGraph(graph.Path(3))
	resT, err := compute(context.Background(), tree, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	relT, err := ReliabilityNumerator(resT.Z, tree.M())
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range relT {
		want := int64(0)
		if k == tree.M() {
			want = 1
		}
		if c.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("tree rel coeff p^%d = %v, want %d", k, c, want)
		}
	}
}

func TestReliabilityMonteCarloAgreement(t *testing.T) {
	// Sanity: the exact reliability polynomial at p = 1/2 equals the
	// fraction of edge subsets that span connectedly, computable directly.
	mg := graph.RandomMultigraph(5, 7, 9)
	res, err := compute(context.Background(), mg, core.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ReliabilityNumerator(res.Z, mg.M())
	if err != nil {
		t.Fatal(err)
	}
	// R(1/2)·2^m = Σ_k rel[k]·2^{m-k} must equal the number of connected
	// spanning edge subsets.
	lhs := new(big.Int)
	for k, c := range rel {
		term := new(big.Int).Lsh(c, uint(mg.M()-k))
		lhs.Add(lhs, term)
	}
	connected := 0
	include := make([]bool, mg.M())
	for mask := 0; mask < 1<<uint(mg.M()); mask++ {
		for i := range include {
			include[i] = mask&(1<<uint(i)) != 0
		}
		if mg.Components(include) == 1 {
			connected++
		}
	}
	if lhs.Cmp(big.NewInt(int64(connected))) != 0 {
		t.Fatalf("R(1/2)·2^m = %v, direct count %d", lhs, connected)
	}
}
