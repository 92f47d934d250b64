package camelot

import (
	"context"
	"math/big"
	"slices"
	"sync"
	"testing"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/orthvec"
	"camelot/internal/setcover"
	"camelot/internal/tutte"
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

// TestCompiledPlansConcurrent drives one compiled plan of every catalog
// kind at its defaults, and of the facade-only Hamming, exact-cover and
// Tutte problems, from eight goroutines at once: with -race this pins
// that a plan's shared state is only read and its scratch is per call,
// and every goroutine's rows must equal Evaluate's.
func TestCompiledPlansConcurrent(t *testing.T) {
	problems := map[string]core.CompiledProblem{}
	for _, k := range Kinds() {
		w, err := ParseWorkload(k.Name)
		if err != nil {
			t.Fatal(err)
		}
		cp, ok := w.Problem.(core.CompiledProblem)
		if !ok {
			t.Fatalf("%s does not compile", k.Name)
		}
		problems[k.Name] = cp
	}
	am, bm, err := boolMatrices(24, 6, RandomBoolMatrix(24, 6, 0.3, 1), RandomBoolMatrix(24, 6, 0.3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if problems["hamming"], err = orthvec.NewHammingProblem(am, bm); err != nil {
		t.Fatal(err)
	}
	if problems["exact cover"], err = setcover.NewExactCoverProblem(randomFamily(8, 20, 1), 8, 3); err != nil {
		t.Fatal(err)
	}
	if problems["tutte"], err = tutte.NewProblem(RandomMultigraph(6, 8, 1).mg, 2); err != nil {
		t.Fatal(err)
	}
	for name, p := range problems {
		primes, err := core.ChoosePrimes(1, p.MinModulus(), 0)
		if err != nil {
			t.Fatal(err)
		}
		q := primes[0]
		pl, err := p.Compile(ff.Must(q))
		if err != nil {
			t.Fatal(err)
		}
		xs := []uint64{0, 1, 2, 3, 1000, 1001, 1002, q - 1}
		want := make([][]uint64, len(xs))
		for i, x := range xs {
			if want[i], err = p.Evaluate(q, x); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := pl.EvaluateBlock(xs)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Errorf("%s x=%d: %v, Evaluate %v", name, xs[i], got[i], want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
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
