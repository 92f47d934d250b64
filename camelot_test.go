package camelot

import (
	"context"
	"math/big"
	"testing"
)

func TestCountCliquesFacade(t *testing.T) {
	g := CompleteGraph(8)
	count, rep, err := CountCliques(context.Background(), g, 6, WithNodes(4), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("not verified")
	}
	if count.Cmp(big.NewInt(28)) != 0 { // C(8,6)
		t.Fatalf("K8 six-cliques = %v, want 28", count)
	}
	seq, err := CountCliquesSequential(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Cmp(count) != 0 {
		t.Fatal("sequential baseline disagrees")
	}
}

func TestChromaticFacade(t *testing.T) {
	coeffs, _, err := ChromaticPolynomial(context.Background(), CycleGraph(5), WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	// χ_{C5}(t) = (t-1)^5 - (t-1) = t^5 -5t^4 +10t^3 -10t^2 +4t.
	want := []int64{0, 4, -10, 10, -5, 1}
	for i, w := range want {
		if coeffs[i].Cmp(big.NewInt(w)) != 0 {
			t.Fatalf("c_%d = %v, want %d", i, coeffs[i], w)
		}
	}
}

func TestTutteFacadeSpanningTrees(t *testing.T) {
	res, err := TuttePolynomial(context.Background(), FromGraph(CompleteGraph(4)), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := EvalTutte(res.T, 1, 1); got.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("K4 spanning trees = %v, want 16 (Cayley)", got)
	}
}

func TestCNFAndPermanentFacade(t *testing.T) {
	f := &CNFFormula{V: 4, Clauses: [][]int{{1, 2}, {-3, 4}}}
	count, _, err := CountCNFSolutions(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	// (3/4)(3/4)·16 = 9.
	if count.Cmp(big.NewInt(9)) != 0 {
		t.Fatalf("#SAT = %v, want 9", count)
	}
	per, _, err := Permanent(context.Background(), [][]int64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if per.Cmp(big.NewInt(10)) != 0 {
		t.Fatalf("permanent = %v, want 10", per)
	}
}

func TestHamiltonAndSetCoverFacade(t *testing.T) {
	count, _, err := CountHamiltonianCycles(context.Background(), CompleteGraph(5))
	if err != nil {
		t.Fatal(err)
	}
	if count.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("K5 hamilton cycles = %v, want 12", count)
	}
	// Universe {0,1}, family {{0},{1}}: one partition into 2 parts; covers
	// with t=2: the 2 orderings.
	covers, _, err := CountSetCovers(context.Background(), []uint64{0b01, 0b10}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if covers.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("covers = %v, want 2", covers)
	}
	parts, _, err := CountSetPartitions(context.Background(), []uint64{0b01, 0b10}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if parts.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("partitions = %v, want 1", parts)
	}
}

func TestVectorProblemFacades(t *testing.T) {
	ctx := context.Background()
	a := RandomBoolMatrix(6, 4, 0.4, 1)
	b := RandomBoolMatrix(6, 4, 0.4, 2)
	counts, _, err := CountOrthogonalPairs(ctx, 6, 4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 6 {
		t.Fatalf("counts = %v", counts)
	}
	dist, _, err := HammingDistribution(ctx, 6, 4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range dist {
		sum := int64(0)
		for _, c := range row {
			sum += c
		}
		if sum != 6 {
			t.Fatalf("row %d distribution sums to %d", i, sum)
		}
	}
	sols, _, err := Convolution3SUM(ctx, []uint64{1, 2, 3, 4, 5, 6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range sols {
		if c != 3 {
			t.Fatalf("c_%d = %d, want 3 (identity array)", i+1, c)
		}
	}
}

func TestMerlinArthurMode(t *testing.T) {
	// Prepare a proof once (Merlin), verify it repeatedly (Arthur), then
	// forge a coefficient and watch verification fail.
	g := RandomGraph(16, 0.4, 9)
	p, proof := prepareTriangleProof(t, g)
	ok, err := VerifyProof(p, proof, 3, 42)
	if err != nil || !ok {
		t.Fatalf("honest proof rejected: %v", err)
	}
	q := proof.Primes[0]
	proof.Coeffs[q][0][1] = (proof.Coeffs[q][0][1] + 1) % q
	rejected := false
	for seed := int64(0); seed < 20 && !rejected; seed++ {
		ok, err := VerifyProof(p, proof, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		rejected = !ok
	}
	if !rejected {
		t.Fatal("forged proof survived 20 trials")
	}
}

func prepareTriangleProof(t *testing.T, g *Graph) (Problem, *Proof) {
	t.Helper()
	p, err := NewTriangleProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := RunProblem(context.Background(), p, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	return p, proof
}

func TestOptionValidationErrors(t *testing.T) {
	ctx := context.Background()
	if _, _, err := CountCliques(ctx, CompleteGraph(6), 5); err == nil {
		t.Fatal("k=5 must error")
	}
	if _, _, err := Permanent(ctx, [][]int64{{1}}); err == nil {
		t.Fatal("1x1 permanent must error")
	}
	if _, _, err := CountCNFSolutions(ctx, &CNFFormula{V: 1}); err == nil {
		t.Fatal("bad formula must error")
	}
}
