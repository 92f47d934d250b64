package camelot

import (
	"context"
	"math/big"
	"testing"

	"camelot/internal/core"
)

func TestGraphBuilders(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.N() != 5 || g.M() != 2 || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("graph builder broken")
	}
	mg := NewMultigraph(3)
	mg.AddEdge(0, 1)
	mg.AddEdge(0, 1)
	mg.AddEdge(2, 2)
	if mg.N() != 3 || mg.M() != 3 {
		t.Fatal("multigraph builder broken")
	}
	if rm := RandomMultigraph(4, 6, 1); rm.M() != 6 {
		t.Fatal("random multigraph broken")
	}
	if pg := PetersenGraph(); pg.N() != 10 || pg.M() != 15 {
		t.Fatal("petersen broken")
	}
	if cg := CycleGraph(7); cg.M() != 7 {
		t.Fatal("cycle broken")
	}
	if pc := PlantCliques(12, 0.1, 6, 1, 2); pc.N() != 12 {
		t.Fatal("plant cliques broken")
	}
}

func TestCSPDistributionFacadeWeighted(t *testing.T) {
	all := []bool{true, true, true, false}
	sys := &CSPSystem{
		N: 6, Sigma: 2,
		Constraints: []CSPConstraint{
			{U: 0, V: 3, Weight: 2, Allowed: all},
			{U: 1, V: 4, Allowed: all},
		},
	}
	dist, rep, err := CSPDistribution(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("not verified")
	}
	// Total weight 3: distribution has 4 buckets summing to 2^6.
	if len(dist) != 4 {
		t.Fatalf("distribution has %d buckets, want 4", len(dist))
	}
	total := new(big.Int)
	for _, v := range dist {
		total.Add(total, v)
	}
	if total.Cmp(big.NewInt(64)) != 0 {
		t.Fatalf("sums to %v, want 64", total)
	}
}

func TestRunProblemDirect(t *testing.T) {
	g := RandomGraph(16, 0.3, 5)
	p, err := NewTriangleProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	proof, rep, err := RunProblem(context.Background(), p, WithNodes(2), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if proof.Size() != rep.ProofSymbols {
		t.Fatal("proof size disagrees with report")
	}
	ok, err := VerifyProof(p, proof, 2, 7)
	if err != nil || !ok {
		t.Fatalf("verify: %v %v", ok, err)
	}
}

// TestRunProblemEvaluateOnly runs a problem with no Compile through
// RunProblem — the facade takes any Problem, so each node's block is a
// loop over Evaluate — and the proof verifies and carries the count.
func TestRunProblemEvaluateOnly(t *testing.T) {
	g := RandomGraph(16, 0.3, 5)
	p, err := NewTriangleProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	bare := struct{ Problem }{p}
	if _, ok := any(bare).(core.CompiledProblem); ok {
		t.Fatal("the wrapper still compiles")
	}
	proof, _, err := RunProblem(context.Background(), bare, WithNodes(2), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := VerifyProof(bare, proof, 2, 7); err != nil || !ok {
		t.Fatalf("verify: %v %v", ok, err)
	}
	got, err := p.Count(proof)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			for w := v + 1; w < g.N(); w++ {
				if g.HasEdge(u, v) && g.HasEdge(v, w) && g.HasEdge(u, w) {
					want++
				}
			}
		}
	}
	if got.Cmp(big.NewInt(want)) != 0 {
		t.Fatalf("count %v, want %d", got, want)
	}
}

func TestTutteFacadeOnMultigraphWithLoops(t *testing.T) {
	mg := NewMultigraph(3)
	mg.AddEdge(0, 1)
	mg.AddEdge(1, 2)
	mg.AddEdge(2, 2) // loop contributes a y factor
	res, err := TuttePolynomial(context.Background(), mg, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	// T = x^2·y (two bridges, one loop).
	if got := EvalTutte(res.T, 2, 3); got.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("T(2,3) = %v, want 12", got)
	}
}

func TestSilentNodesFacade(t *testing.T) {
	g := RandomGraph(18, 0.3, 9)
	_, rep, err := CountTriangles(context.Background(), g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Degree
	k := 4
	f := 0
	for {
		e := d + 1 + 2*f
		if f >= (e+k-1)/k {
			break
		}
		f++
	}
	count, rep, err := CountTriangles(context.Background(), g,
		WithNodes(k), WithFaultTolerance(f), WithAdversary(SilentNodes(1)), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified || count.Sign() < 0 {
		t.Fatal("silent-node run failed")
	}
}

func TestHamiltonianPathsFacade(t *testing.T) {
	count, _, err := CountHamiltonianPaths(context.Background(), CompleteGraph(4))
	if err != nil {
		t.Fatal(err)
	}
	if count.Cmp(big.NewInt(12)) != 0 { // 4!/2
		t.Fatalf("K4 hamiltonian paths = %v, want 12", count)
	}
	// The proof wire format through the public types: prepare, marshal,
	// unmarshal, verify.
	p, proof := prepareTriangleProof(t, RandomGraph(14, 0.3, 3))
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if ok, err := VerifyProof(p, &back, 2, 11); err != nil || !ok {
		t.Fatalf("serialized proof failed verification: %v %v", ok, err)
	}
}
