package camelot

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"
	"time"

	"camelot/internal/chromatic"
	"camelot/internal/conv3sum"
	"camelot/internal/csp"
	"camelot/internal/graph"
	"camelot/internal/orthvec"
	"camelot/internal/permanent"
	"camelot/internal/setcover"
	"camelot/internal/tutte"
)

// The kinds the catalog made spec-addressable define their Count here
// (a total, Σ|c_k|, N_m) rather than in a facade constructor, so each is
// checked against its package's brute-force oracle on the instance the
// catalog's seeded generator draws — the wiring of generator, problem
// and answer that no other test sees. Each proof first has its stored
// evaluation at x = 1 raised by one: VerifyProof, which reads only the
// coefficients, still accepts it, so no answer may read Evals either
// (the permanent row sums x = 0..7 and would print 10459).
func TestCatalogAnswersMatchOracles(t *testing.T) {
	sum := func(cs []int64) *big.Int {
		total := new(big.Int)
		for _, c := range cs {
			total.Add(total, big.NewInt(c))
		}
		return total
	}
	for spec, oracle := range map[string]func() *big.Int{
		"chromatic n=6 p=0.5 seed=3": func() *big.Int {
			// Σ|c_k| = |χ_G(-1)|, and χ_G(-1) follows from the colouring
			// counts χ_G(0..n) by Lagrange interpolation.
			g, n := graph.Gnp(6, 0.5, 3), 6
			at := new(big.Rat)
			for i := 0; i <= n; i++ {
				term := new(big.Rat).SetInt(chromatic.CountColoringsBrute(g, i))
				for j := 0; j <= n; j++ {
					if j != i {
						term.Mul(term, big.NewRat(int64(-1-j), int64(i-j)))
					}
				}
				at.Add(at, term)
			}
			if !at.IsInt() {
				t.Fatalf("χ_G(-1) = %v is not an integer", at)
			}
			return new(big.Int).Abs(at.Num())
		},
		"setcover n=6 sets=8 t=3 seed=2": func() *big.Int {
			return setcover.CountCoversBrute(randomFamily(6, 8, 2), 6, 3)
		},
		"ov n=12 t=5 seed=4": func() *big.Int {
			am, bm, err := boolMatrices(12, 5, RandomBoolMatrix(12, 5, 0.3, 4), RandomBoolMatrix(12, 5, 0.3, 5))
			if err != nil {
				t.Fatal(err)
			}
			return sum(orthvec.CountOrthogonalNaive(am, bm))
		},
		"conv3sum n=16 bits=4 seed=5": func() *big.Int {
			return sum(conv3sum.CountNaive(randomArray(16, 4, 5)))
		},
		"csp n=6 sigma=2 m=4 seed=6": func() *big.Int {
			dist := csp.DistributionBrute(csp.RandomSystem(6, 2, 4, 0.5, 6))
			return dist[len(dist)-1]
		},
		"permanent n=6 seed=1": func() *big.Int { return permanent.Naive(RandomIntMatrix(6, 1)) },
	} {
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", spec, err)
		}
		proof, _, err := RunProblem(context.Background(), w.Problem, WithNodes(3))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		q := proof.Primes[0]
		proof.Evals[q][0][1] = (proof.Evals[q][0][1] + 1) % q
		if ok, err := VerifyProof(w.Problem, proof, 5, 1); !ok || err != nil {
			t.Fatalf("%s: VerifyProof refused a proof whose Coeffs are honest: %v", spec, err)
		}
		got, err := w.Problem.Count(proof)
		if err != nil {
			t.Fatalf("%s: Count: %v", spec, err)
		}
		if want := oracle(); got.Cmp(want) != 0 {
			t.Errorf("%s: Count = %v, oracle says %v", spec, got, want)
		}
		if text, err := w.Answer(proof); err != nil || text == "" {
			t.Errorf("%s: Answer = %q, %v", spec, text, err)
		}
	}
}

// Options outside their domain or contradicting each other are refused
// by the engine with ErrInvalidOptions, whichever door they came in by —
// not clamped, and not surfacing from the Reed–Solomon layer.
func TestInvalidOptionsRefusedEverywhere(t *testing.T) {
	ctx := context.Background()
	g := CompleteGraph(6)
	for name, opts := range map[string][]Option{
		"negative faults":       {WithFaultTolerance(-3)},
		"negative nodes":        {WithNodes(-2)},
		"negative trials":       {WithVerifyTrials(-1)},
		"negative erasures":     {WithMaxErasures(-4)},
		"repair sans erasures":  {WithMaxRepairRounds(1)},
		"grace sans erasures":   {WithGatherGrace(time.Second)},
		"liar beyond the nodes": {WithNodes(4), WithAdversary(LyingNodes(7, 4))},
	} {
		if _, _, err := CountTriangles(ctx, g, opts...); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("one-shot, %s: err = %v, want ErrInvalidOptions", name, err)
		}
	}
	p, err := NewTriangleProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(WithNodes(2))
	defer cl.Close()
	if _, _, err := cl.Submit(ctx, p, WithMaxRepairRounds(2)).Wait(ctx); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Cluster.Submit: err = %v, want ErrInvalidOptions", err)
	}
	srv := NewServer(cl, ServerConfig{Run: []RunOption{WithMaxRepairRounds(1)}})
	defer srv.Close()
	out, err := srv.Submit("tenant", "permanent n=4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Result(ctx, out.Digest); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Server: err = %v, want ErrInvalidOptions", err)
	}
}

// A strict run over a transport that loses a message must end on its
// own, typed and naming the node, well inside the deadline: a gather
// that waits for the caller's context instead never returns under the
// proof service's background context, and keeps its queue slot.
func TestStrictRunRefusesLossPromptly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cl := NewCluster(WithNodes(4))
	defer cl.Close()
	p, err := NewTriangleProblem(RandomGraph(12, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = cl.Submit(context.Background(), p, WithAdversary(Adversary{DropNodes: []int{1}})).Wait(ctx)
	if !errors.Is(err, ErrDeliveryFault) || !strings.Contains(err.Error(), "no message from node 1") {
		t.Fatalf("err = %v, want ErrDeliveryFault naming node 1", err)
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Fatalf("refusal took %v of a 5s deadline", took)
	}
}

// TestCatalogSizingPinned pins every kind's NumPrimes and MinModulus, at
// its defaults and at an instance past the one-prime bound where a kind
// has one a test can build: they select the proof's primes, so a change
// here moves proof bytes. Recorded where crt.FloorModulus went from 2^20
// to 2^61: every default is one prime at the floor, and each instance
// below still needs a second prime at 61 bits apiece (`permanent n=40`
// took 12 at 20). No design modulus reaches the floor any more, and
// triangles (n³ > 2^61), ov, cnfsat and conv3sum (counts of at most n or
// 2^vars) have no instance that crosses the bound, so they are pinned at
// their defaults only.
func TestCatalogSizingPinned(t *testing.T) {
	const floor = 1 << 61
	pinned := map[string]struct {
		primes int
		minQ   uint64
	}{
		"triangles": {1, floor}, "cliques": {1, floor}, "permanent": {1, floor},
		"cnfsat": {1, floor}, "hamilton": {1, floor}, "chromatic": {1, floor},
		"setcover": {1, floor}, "ov": {1, floor}, "conv3sum": {1, floor}, "csp": {1, floor},

		"cliques n=62 k=12 p=0.5":    {2, floor},
		"permanent n=40":             {4, floor},
		"hamilton n=30 p=0.5":        {2, floor},
		"chromatic n=30 p=0.4":       {3, floor},
		"setcover n=24 sets=30 t=13": {2, floor},
		"csp n=42 sigma=2 m=8":       {2, floor},
	}
	for _, k := range Kinds() {
		if _, ok := pinned[k.Name]; !ok {
			t.Errorf("kind %s has no pinned sizing", k.Name)
		}
	}
	for spec, want := range pinned {
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, min := w.Problem.NumPrimes(), w.Problem.MinModulus(); got != want.primes || min != want.minQ {
			t.Errorf("%s: NumPrimes %d, MinModulus %d; pinned %d, %d", spec, got, min, want.primes, want.minQ)
		}
	}
}

// goldenAnswer prepares a golden case's proof and renders what it
// encodes: a spec case through Workload.Answer, a constructor-built one
// through its package's own recovery.
func goldenAnswer(gc goldenCase) (string, error) {
	p, err := gc.build()
	if err != nil {
		return "", err
	}
	proof, _, err := RunProblem(context.Background(), p, WithNodes(3))
	if err != nil {
		return "", err
	}
	if gc.spec != "" {
		w, err := ParseWorkload(gc.spec)
		if err != nil {
			return "", err
		}
		return w.Answer(proof)
	}
	var v any
	switch p := p.(type) {
	case *chromatic.Problem:
		v, err = p.Coefficients(proof)
	case *setcover.CoverProblem:
		v, err = p.RecoverCovers(proof)
	case *tutte.Problem:
		v, err = p.Values(proof)
	case *conv3sum.Problem:
		v, err = p.Counts(proof)
	case *csp.Problem:
		v, err = p.Distribution(proof)
	default:
		return "", fmt.Errorf("no recovery for %T", p)
	}
	return fmt.Sprint(v), err
}

// TestCatalogAnswersPinned pins what every golden case's proof says —
// each catalog kind's answer at its defaults and the counts of the five
// constructor-built instances — as text. The answers are facts about
// the instances, not about the primes the proof was prepared over: when
// the golden digests are regenerated because the modulus policy moved,
// this table must not change by a byte.
func TestCatalogAnswersPinned(t *testing.T) {
	pinned := map[string]string{
		"chromatic":  "[0 -108 432 -711 625 -318 94 -15 1]",
		"setcover":   "84",
		"tutte-line": "[729 3200 9075 20736 41405 75264]",
		"conv3sum":   "[1 1 0 0]",
		"csp":        "[0 8 8 40 8 0]",

		"triangles":      "triangles: 126",
		"cliques":        "k-cliques: 0",
		"permanent":      "permanent: 301565847",
		"cnfsat":         "#SAT: 234",
		"hamilton":       "hamiltonian cycles: 68",
		"chromatic-spec": "χ_G(t) coefficients (c_0..c_10): [0 -3690 13593 -21746 20098 -11923 4731 -1259 217 -22 1]",
		"setcover-spec":  "t-covers: 323190",
		"ov":             "orthogonal pairs: 3537",
		"conv3sum-spec":  "convolution-3SUM solutions: 4",
		"csp-spec": "assignments by satisfied-constraint count:\n   1 satisfied: 64\n   2 satisfied: 256\n   3 satisfied: 576\n" +
			"   4 satisfied: 1024\n   5 satisfied: 1216\n   6 satisfied: 768\n   7 satisfied: 192",
	}
	for _, gc := range goldenCases() {
		got, err := goldenAnswer(gc)
		if err != nil {
			t.Errorf("%s: %v", gc.name, err)
			continue
		}
		if want, ok := pinned[gc.name]; !ok || got != want {
			t.Errorf("%s: answer moved\n got: %q\nwant: %q", gc.name, got, want)
		}
	}
}
