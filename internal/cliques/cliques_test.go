package cliques

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/matrix"
	"camelot/internal/tensor"
)

var testField = ff.Must(1000003)

func randForm(t *testing.T, rng *rand.Rand, n int) *Form {
	t.Helper()
	ms := make(map[[2]int]*matrix.Matrix)
	fm, err := NewForm(testField, n, func(s, tt int) *matrix.Matrix {
		key := [2]int{s, tt}
		if m, ok := ms[key]; ok {
			return m
		}
		m := matrix.Rand(testField, n, n, rng)
		ms[key] = m
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

func TestNesetrilPoljakMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 4, 5} {
		fm := randForm(t, rng, n)
		if got, want := fm.EvalNesetrilPoljak(), fm.EvalDirect(); got != want {
			t.Fatalf("n=%d: NP=%d direct=%d", n, got, want)
		}
	}
}

func TestTheorem13PartsMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		name string
		n    int
		dc   tensor.Decomposition
	}{
		{"trivial-2", 2, tensor.Trivial(2)},
		{"trivial-4", 4, tensor.Trivial(4)},
		{"strassen-2", 2, tensor.Strassen()},
		{"strassen-4", 4, tensor.Strassen().Pow(2)},
		{"trivial2^2", 4, tensor.Trivial(2).Pow(2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fm := randForm(t, rng, tc.n)
			got, err := fm.EvalParts(tc.dc, 4)
			if err != nil {
				t.Fatal(err)
			}
			if want := fm.EvalDirect(); got != want {
				t.Fatalf("parts=%d direct=%d", got, want)
			}
		})
	}
}

func TestProofEvalMatchesTermsOnGrid(t *testing.T) {
	// P(x0) at x0 = r+1 must equal the exact term P(r) (paper §5.2).
	rng := rand.New(rand.NewSource(3))
	fm := randForm(t, rng, 4)
	dc := tensor.Strassen().Pow(2)
	for r := 0; r < dc.R(); r += 7 {
		want, err := fm.TermAt(dc, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fm.ProofEval(dc, uint64(r+1))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("P(%d): proof=%d term=%d", r+1, got, want)
		}
	}
}

func TestProofPolynomialDegree(t *testing.T) {
	// Interpolating P from 3(R-1)+1 points must reproduce P elsewhere.
	rng := rand.New(rand.NewSource(4))
	fm := randForm(t, rng, 2)
	dc := tensor.Strassen()
	d := 3 * (dc.R() - 1)
	f := testField
	xs := make([]uint64, d+1)
	for i := range xs {
		xs[i] = uint64(i + 1)
	}
	lam := f.LagrangeAtOneBased(d+1, 99991)
	viaInterp := uint64(0)
	for i, x := range xs {
		v, err := fm.ProofEval(dc, x)
		if err != nil {
			t.Fatal(err)
		}
		viaInterp = f.Add(viaInterp, f.Mul(v, lam[i]))
	}
	direct, err := fm.ProofEval(dc, 99991)
	if err != nil {
		t.Fatal(err)
	}
	if viaInterp != direct {
		t.Fatalf("P not a degree-%d polynomial: interp=%d direct=%d", d, viaInterp, direct)
	}
}

func TestSubsetMatrixSixCliqueIsAdjacency(t *testing.T) {
	g := graph.Gnp(7, 0.6, 1)
	sm, err := BuildSubsetMatrix(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sm.N != 7 {
		t.Fatalf("N = %d", sm.N)
	}
	for u := 0; u < 7; u++ {
		for v := 0; v < 7; v++ {
			want := uint64(0)
			if g.HasEdge(u, v) {
				want = 1
			}
			if sm.Entries[u*7+v] != want {
				t.Fatalf("χ[%d][%d] = %d, want adjacency %d", u, v, sm.Entries[u*7+v], want)
			}
		}
	}
}

func TestSubsetMatrixPairs(t *testing.T) {
	// k=12, s=2: entries require disjointness and the union clique.
	g := graph.Complete(5)
	sm, err := BuildSubsetMatrix(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sm.N != 10 {
		t.Fatalf("N = %d, want C(5,2)=10", sm.N)
	}
	// In K5 every disjoint pair of pairs forms a 4-clique: each row has
	// C(3,2) = 3 disjoint partners.
	for i := 0; i < sm.N; i++ {
		row := 0
		for j := 0; j < sm.N; j++ {
			row += int(sm.Entries[i*sm.N+j])
		}
		if row != 3 {
			t.Fatalf("row %d sum = %d, want 3", i, row)
		}
	}
}

func TestCountNaiveKnownValues(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		k    int
		want int64
	}{
		{"K6 has 1 six-clique", graph.Complete(6), 6, 1},
		{"K8 choose 6", graph.Complete(8), 6, 28},
		{"K9 choose 6", graph.Complete(9), 6, 84},
		{"cycle has none", graph.Cycle(10), 6, 0},
		{"K5 triangles", graph.Complete(5), 3, 10},
		{"petersen triangles", graph.Petersen(), 3, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CountNaive(tt.g, tt.k); got.Cmp(big.NewInt(tt.want)) != 0 {
				t.Fatalf("got %v, want %d", got, tt.want)
			}
		})
	}
}

func TestMultinomial(t *testing.T) {
	// k=6: 6!/(1!)^6 = 720. k=12: 12!/(2!)^6 = 479001600/64 = 7484400.
	if got := Multinomial(6); got.Cmp(big.NewInt(720)) != 0 {
		t.Fatalf("Multinomial(6) = %v", got)
	}
	if got := Multinomial(12); got.Cmp(big.NewInt(7484400)) != 0 {
		t.Fatalf("Multinomial(12) = %v", got)
	}
}

func TestCountNesetrilPoljakMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := graph.Gnp(9, 0.75, seed)
		want := CountNaive(g, 6)
		got, err := CountNesetrilPoljak(g, 6)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: NP=%v naive=%v", seed, got, want)
		}
	}
}

func TestCountPartsMatchesNaive(t *testing.T) {
	g := graph.Gnp(8, 0.8, 5)
	want := CountNaive(g, 6)
	for name, base := range map[string]tensor.Decomposition{
		"strassen": tensor.Strassen(), "trivial": tensor.Trivial(2),
	} {
		got, err := CountParts(g, 6, base, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: parts=%v naive=%v", name, got, want)
		}
	}
}

func TestCamelotSixCliqueEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full Camelot clique run in -short mode")
	}
	g := graph.PlantCliques(8, 0.5, 6, 1, 2)
	want := CountNaive(g, 6)
	p, err := NewProblem(g, 6, tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	// d = 3(R-1) = 1026 for Strassen^3 (R=343); with K=8 nodes a single
	// byzantine node owns ~e/8 shares, so f must cover a full node block:
	// e = 1027+2f, f=200 => e=1427, ~179 shares per node <= radius 200.
	proof, rep, err := core.Run(context.Background(), p, core.Options{
		Nodes: 8, FaultTolerance: 200, Adversary: core.NewLyingNodes(3, 2),
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("proof not verified")
	}
	got, err := p.Recover(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	// The lying node must be identified.
	found := false
	for _, s := range rep.SuspectNodes {
		if s == 2 {
			found = true
		}
		if s != 2 {
			t.Fatalf("honest node %d implicated", s)
		}
	}
	if !found {
		t.Fatal("byzantine node not identified")
	}
}

// TestDecompositionsChangeProofGeometry: the decomposition is the proof's
// geometry — Strassen's rank 7³ = 343 against the trivial 8³ = 512 on K8
// is a smaller proof of the same count — and tensor.Trivial is the
// reference the production Strassen design is held to.
func TestDecompositionsChangeProofGeometry(t *testing.T) {
	g := graph.Complete(8)
	run := func(base tensor.Decomposition) (*big.Int, *core.Report) {
		p, err := NewProblem(g, 6, base)
		if err != nil {
			t.Fatal(err)
		}
		proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		count, err := p.Recover(proof)
		if err != nil {
			t.Fatal(err)
		}
		return count, rep
	}
	countS, repS := run(tensor.Strassen())
	countT, repT := run(tensor.Trivial(2))
	if countS.Cmp(countT) != 0 || countS.Int64() != 28 {
		t.Fatalf("6-cliques of K8: strassen %v, trivial %v, want 28", countS, countT)
	}
	if repS.ProofSymbols >= repT.ProofSymbols {
		t.Fatalf("strassen proof %d not smaller than trivial %d", repS.ProofSymbols, repT.ProofSymbols)
	}
}

func TestCamelotCliqueRejectsBadGraphArgs(t *testing.T) {
	g := graph.Complete(6)
	if _, err := NewProblem(g, 5, tensor.Strassen()); err == nil {
		t.Fatal("want error for k not divisible by 6")
	}
	if _, err := NewProblem(g, 0, tensor.Strassen()); err == nil {
		t.Fatal("want error for k=0")
	}
}

func TestEnumerateSubsets(t *testing.T) {
	subs := enumerateSubsets(4, 2)
	if len(subs) != 6 {
		t.Fatalf("C(4,2) = %d, want 6", len(subs))
	}
	for _, m := range subs {
		if onesCount(m) != 2 {
			t.Fatalf("subset %b has wrong size", m)
		}
	}
}

func onesCount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
