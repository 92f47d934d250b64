package camelot

// The paper's resource theorems as checked claims. The extended abstract
// numbers its results Theorems 1–13 and has no tables; the rows below
// are the map from those theorems to this repository, one per family
// (the ids E1–E13 are what ARCHITECTURE.md, "Paper claims", cites). A
// row asserts what is exact and host-independent — a proof's geometry is
// a pure function of the instance — and never reads a clock:
//
//   - Degree() and Width() equal the closed form the problem's package
//     documents, written here from the instance's parameters (and, for
//     the orthogonal-vectors designs, the most set bits of a B row);
//   - the proof, (Degree+1)·Width·NumPrimes field symbols, is within the
//     theorem's formula with the factors its O*/Õ hides spelled out;
//   - for the framework rows, that faults are named up to the radius and
//     refused beyond it (E12) and that K nodes each do a 1/K share of
//     one and the same proof (E13).
//
// That every count is right is the business of the per-package tests
// (TestAllCountersAgree, TestCamelotMatches*, TestTheorem13PartsMatchDirect,
// TestCatalogAnswersMatchOracles); the soundness rate d/q of E12 is
// measured where d/q is visible, in internal/core's
// TestVerifyProofSoundnessBound.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sync"
	"testing"

	"camelot/internal/cliques"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/hamilton"
	"camelot/internal/matrix"
	"camelot/internal/orthvec"
	"camelot/internal/setcover"
	"camelot/internal/tensor"
	"camelot/internal/triangles"
	"camelot/internal/tutte"
)

// omega is the matrix-multiplication exponent of this repository:
// Strassen's ⟨2,2,2⟩ of rank 7.
var omega = math.Log2(7)

// sizing is one instance of a theorem's sweep and the shape its proof
// must have.
type sizing struct {
	// what is the instance: a catalog spec line when build is nil, a
	// label for what the catalog lacks otherwise.
	what  string
	build func() (Problem, error)
	// degree and width are the documented closed forms of Degree() and
	// Width(), computed from the instance's parameters.
	degree, width int
	// bound is the theorem's proof size in symbols, hidden factors
	// spelled out.
	bound float64
}

// theorem is one row: a family of the paper's claims.
type theorem struct {
	id, claim string
	sizes     []sizing
	// check holds the row's assertions that are not a sizing.
	check func(t *testing.T)
}

// sweep builds a row's sizings from its closed form, one per size.
func sweep[S any](row func(S) sizing, sizes ...S) []sizing {
	out := make([]sizing, len(sizes))
	for i, s := range sizes {
		out[i] = row(s)
	}
	return out
}

func pow(b, e int) int {
	out := 1
	for ; e > 0; e-- {
		out *= b
	}
	return out
}

// strassenRank is the rank 7^⌈log₂ n⌉ of the Strassen power that covers
// an n×n product, at most 7·n^ω.
func strassenRank(n int) int {
	r := 7
	for size := 2; size < n; size *= 2 {
		r *= 7
	}
	return r
}

func binomial(n, k int) int {
	return int(new(big.Int).Binomial(int64(n), int64(k)).Int64())
}

// Theorem 1: deg P = 3(R−1) over the subset matrix of dimension
// N = C(n, k/6) ≤ n^{k/6} (§5.2), so the proof is O(n^{ωk/6}) symbols.
func cliqueRow(nk [2]int) sizing {
	n, k := nk[0], nk[1]
	dim := binomial(n, k/6)
	return sizing{
		what:   fmt.Sprintf("cliques n=%d k=%d", n, k),
		degree: 3 * (strassenRank(dim) - 1), width: 1,
		bound: 3 * 7 * math.Pow(float64(dim), omega),
	}
}

// gnp names a G(n, p) instance of the catalog.
type gnp struct {
	n int
	p float64
}

// triangleParts is R/m' of Theorem 3: the rank split at the least power
// of 7 holding the 2m nonzeros of the adjacency matrix.
func triangleParts(n, m int) int {
	parts := strassenRank(n)
	for size := 1; size < 2*m && parts > 1; size *= 7 {
		parts /= 7
	}
	return parts
}

// Theorem 3: deg P = 3(R/m'−1) with m' ≥ 2m and R ≤ 7·n^ω, so at fixed n
// the proof falls as n^ω/m — down to the single part of a dense graph.
func triangleRow(g gnp) sizing {
	m := RandomGraph(g.n, g.p, 1).M() // the catalog's draw at seed 1
	return sizing{
		what:   fmt.Sprintf("triangles n=%d p=%g", g.n, g.p),
		degree: 3 * (triangleParts(g.n, m) - 1), width: 1,
		bound: max(3*float64(strassenRank(g.n))/float64(2*m), 1),
	}
}

// halfExp is the O*(2^{n/2}) of Theorems 6 and 8–10 with at most a
// factor poly in front.
func halfExp(poly, n int) float64 { return float64(poly) * math.Exp2(float64(n)/2) }

// Theorem 6: the §7 template over the balanced split, |B| = ⌊n/2⌋ and
// deg P = |B|·2^{|B|−1}, one coordinate per colour count 1..n+1.
func chromaticRow(n int) sizing {
	b := n / 2
	return sizing{what: fmt.Sprintf("chromatic n=%d", n), degree: b << (b - 1), width: n + 1, bound: halfExp(n*n, n)}
}

// Theorem 7: the same template over the tripartite split, |B| = ⌊n/3⌋,
// for one Fortuin–Kasteleyn line r of an m-edge multigraph; r = m+1 is
// the line with the most primes.
func tutteRow(n int) sizing {
	b, m := n/3, 2*n
	return sizing{
		what:   fmt.Sprintf("tutte n=%d m=%d r=%d", n, m, m+1),
		build:  func() (Problem, error) { return tutte.NewProblem(graph.RandomMultigraph(n, m, 1), uint64(m+1)) },
		degree: b << (b - 1), width: n + 1,
		bound: float64(n*n) * math.Exp2(float64(n)/3),
	}
}

// Theorem 8(1): orthogonal vectors over the 2^{⌈v/2⌉} half-assignments,
// one dimension per clause; a B row's set bits are the clauses its
// half-assignment leaves unsatisfied, so the degree is 2^{⌈v/2⌉} − 1
// times the most clauses one B half-assignment leaves open.
func cnfRow(vc [2]int) sizing {
	v, clauses := vc[0], vc[1]
	return sizing{
		what:   fmt.Sprintf("cnfsat vars=%d clauses=%d", v, clauses),
		degree: max(1, mostOpenClauses(RandomCNF(v, clauses, 3, 1))) * (1<<((v+1)/2) - 1), width: 1,
		bound: halfExp(2*clauses, v),
	}
}

// mostOpenClauses is the most clauses of f that an assignment to its
// last ⌊v/2⌋ variables satisfies no literal of.
func mostOpenClauses(f *CNFFormula) int {
	v1 := (f.V + 1) / 2
	most := 0
	for mask := 0; mask < 1<<(f.V-v1); mask++ {
		open := 0
		for _, cl := range f.Clauses {
			if !slices.ContainsFunc(cl, func(lit int) bool {
				v := max(lit, -lit) - v1 - 1
				return v >= 0 && (mask>>v&1 == 1) == (lit > 0)
			}) {
				open++
			}
		}
		most = max(most, open)
	}
	return most
}

// dSwept is the degree of the D(x)-composed designs of Theorem 8(2, 3)
// and Appendix A.5: total degree 2·half in the half swept variables —
// the alternating sum over the enumerated half keeps only terms with at
// most half swept factors, and the sign product adds half — composed
// with deg D = 2^half − 1.
func dSwept(half int) int { return 2 * half * (1<<half - 1) }

func permanentRow(n int) sizing {
	return sizing{what: fmt.Sprintf("permanent n=%d", n), degree: dSwept(n / 2), width: 1, bound: halfExp(n*n, n)}
}

func hamiltonRow(n int) sizing {
	return sizing{what: fmt.Sprintf("hamilton n=%d", n), degree: dSwept((n - 1) / 2), width: 1, bound: halfExp(n*n, n)}
}

func hamiltonPathRow(n int) sizing {
	return sizing{
		what:   fmt.Sprintf("hamiltonian paths n=%d", n),
		build:  func() (Problem, error) { return hamilton.NewPathProblem(graph.Gnp(n, 0.5, 1)) },
		degree: dSwept(n / 2), width: 1, bound: halfExp(n*n, n),
	}
}

// Theorem 9: deg D = 2^{n1}−1 composed with the total degree (1+t)·n1 of
// F_t, n1 = ⌈n/2⌉ (Appendix A.6).
func coverRow(nt [2]int) sizing {
	n, t := nt[0], nt[1]
	n1 := (n + 1) / 2
	return sizing{
		what:   fmt.Sprintf("setcover n=%d t=%d", n, t),
		degree: (1<<n1 - 1) * (1 + t) * n1, width: 1,
		bound: halfExp((1+t)*n, n),
	}
}

// Theorem 10: the §7 template again, |B| = ⌊n/2⌋ (§8).
func exactCoverRow(n int) sizing {
	b := n / 2
	return sizing{
		what:   fmt.Sprintf("exact covers n=%d", n),
		build:  func() (Problem, error) { return setcover.NewExactCoverProblem(randomFamily(n, 24, 1), n, 3) },
		degree: b << (b - 1), width: 1, bound: halfExp(n, n),
	}
}

// Theorem 11(1): a factor of degree n−1 per set bit of a B row, at most
// t of them — linear in n and in t. The catalog's B is
// RandomBoolMatrix(n, t, 0.3, seed+1) at seed 1.
func ovRow(nt [2]int) sizing {
	n, t := nt[0], nt[1]
	b := RandomBoolMatrix(n, t, 0.3, 2)
	most := 0
	for row := range slices.Chunk(b, t) {
		most = max(most, bytes.Count(row, []byte{1}))
	}
	return sizing{what: fmt.Sprintf("ov n=%d t=%d", n, t), degree: max(1, most) * (n - 1), width: 1, bound: float64(n * t)}
}

// Theorem 11(2): t+1 factors over the (n+1)(t+1)-point grid — nt²-shaped.
func hammingRow(nt [2]int) sizing {
	n, t := nt[0], nt[1]
	return sizing{
		what: fmt.Sprintf("hamming n=%d t=%d", n, t),
		build: func() (Problem, error) {
			a, b, err := boolMatrices(n, t, RandomBoolMatrix(n, t, 0.5, 1), RandomBoolMatrix(n, t, 0.5, 2))
			if err != nil {
				return nil, err
			}
			return orthvec.NewHammingProblem(a, b)
		},
		degree: (t + 1) * ((n+1)*(t+1) - 1), width: 1,
		bound: float64((n + 1) * (t + 1) * (t + 1)),
	}
}

// Theorem 11(3): t(t+1)/2 + 3t units of degree n−1 through the carry
// chain — nt²-shaped.
func conv3sumRow(nt [2]int) sizing {
	n, t := nt[0], nt[1]
	return sizing{
		what:   fmt.Sprintf("conv3sum n=%d bits=%d", n, t),
		degree: (t*(t+1)/2 + 3*t) * (n - 1), width: 1,
		bound: float64(4 * n * t * t),
	}
}

// Theorem 12: the clique design over the σ^{n/6} block assignments, one
// coordinate per satisfied-constraint count 0..m.
func cspRow(nsm [3]int) sizing {
	n, sigma, m := nsm[0], nsm[1], nsm[2]
	return sizing{
		what:   fmt.Sprintf("csp n=%d sigma=%d m=%d", n, sigma, m),
		degree: 3 * (strassenRank(pow(sigma, n/6)) - 1), width: m + 1,
		bound: 3 * 7 * math.Pow(float64(sigma), omega*float64(n)/6) * float64((m+1)*(m+1)),
	}
}

// pinnedDegrees anchors the closed forms above to numbers, on instances
// the sweeps contain: a formula mistyped here the same way as in its
// package would still miss these.
var pinnedDegrees = map[string]int{
	"cliques n=8 k=6": 1026, "cliques n=9 k=6": 7200, "cliques n=16 k=6": 7200, "cliques n=17 k=6": 50418,
	"triangles n=32 p=0.3": 144, "triangles n=32 p=0.6": 18,
	"chromatic n=10": 80, "chromatic n=20": 5120,
	"permanent n=10": 310, "ov n=128 t=16": 1270,
}

var theorems = []theorem{
	{
		id: "E1", claim: "Theorem 1: k-cliques with proof size and per-node time O(n^{ωk/6})",
		sizes: sweep(cliqueRow, [2]int{5, 6}, [2]int{8, 6}, [2]int{9, 6}, [2]int{16, 6}, [2]int{17, 6},
			[2]int{6, 12}, [2]int{8, 12}, [2]int{9, 12}),
	},
	{id: "E2", claim: "Theorems 2 and 13: the (6,2)-form as R ≤ 7·N^ω independent terms of O(N²) space", check: checkFormParts},
	{
		id: "E3", claim: "Theorem 3: triangles with proof size O(n^ω/m), falling in m at fixed n",
		sizes: sweep(triangleRow, gnp{32, 0.02}, gnp{32, 0.05}, gnp{32, 0.3}, gnp{32, 0.6}, gnp{32, 0.9},
			gnp{64, 0.1}, gnp{64, 0.5}, gnp{128, 0.1}),
		check: checkTrianglesFallInM,
	},
	{id: "E4", claim: "Theorem 4: split/sparse triangle counting in O(n^ω/m) independent parts of Õ(m) entries", check: checkSplitSparseParts},
	{id: "E5", claim: "Theorem 5: triangles within the Alon–Yuster–Zwick bound, split at Δ = m^{(ω−1)/(ω+1)}", check: checkAYZ},
	{id: "E6", claim: "Theorem 6: the chromatic polynomial with proof size O*(2^{n/2})", sizes: sweep(chromaticRow, 8, 10, 11, 14, 20, 24)},
	{id: "E7", claim: "Theorem 7: the Tutte polynomial with proof size O*(2^{n/3}) per Fortuin–Kasteleyn line", sizes: sweep(tutteRow, 6, 9, 12, 15, 18)},
	{
		id: "E8", claim: "Theorem 8: #CNFSAT, the permanent and Hamiltonian cycles (and paths) with proof size O*(2^{n/2})",
		sizes: slices.Concat(
			sweep(cnfRow, [2]int{10, 20}, [2]int{12, 20}, [2]int{13, 30}, [2]int{16, 20}, [2]int{20, 20}),
			sweep(permanentRow, 8, 10, 11, 16, 20),
			sweep(hamiltonRow, 7, 9, 10, 16, 20),
			sweep(hamiltonPathRow, 7, 10, 16)),
	},
	{
		id: "E9", claim: "Theorems 9 and 10: set covers and exact covers with proof size O*(2^{n/2})",
		sizes: slices.Concat(
			sweep(coverRow, [2]int{8, 4}, [2]int{10, 4}, [2]int{11, 5}, [2]int{16, 4}, [2]int{20, 3}),
			sweep(exactCoverRow, 8, 10, 16, 20)),
	},
	{
		id: "E10", claim: "Theorem 11: orthogonal vectors Õ(nt), Hamming distribution and Convolution3SUM Õ(nt²)",
		sizes: slices.Concat(
			sweep(ovRow, [2]int{64, 16}, [2]int{128, 16}, [2]int{256, 16}, [2]int{128, 8}, [2]int{128, 32}),
			sweep(hammingRow, [2]int{16, 4}, [2]int{32, 4}, [2]int{24, 6}, [2]int{24, 12}),
			sweep(conv3sumRow, [2]int{16, 6}, [2]int{32, 6}, [2]int{64, 6}, [2]int{32, 3}, [2]int{32, 12})),
	},
	{
		id: "E11", claim: "Theorem 12: 2-CSP enumeration with proof size O*(σ^{ωn/6})",
		sizes: sweep(cspRow, [3]int{6, 2, 8}, [3]int{12, 2, 8}, [3]int{18, 2, 8}, [3]int{12, 2, 20},
			[3]int{6, 3, 8}, [3]int{12, 3, 8}, [3]int{6, 4, 8}, [3]int{6, 5, 8}),
	},
	{id: "E12", claim: "Framework: failed nodes are identified up to the decoding radius and the run is refused beyond it", check: checkRadius},
	{id: "E13", claim: "Framework: K nodes each evaluate ⌈e/K⌉ points of one and the same proof", check: checkTradeoff},
}

func TestTheorems(t *testing.T) {
	for _, th := range theorems {
		t.Run(th.id, func(t *testing.T) {
			t.Log(th.claim)
			for _, s := range th.sizes {
				checkSizing(t, s)
			}
			if th.check != nil {
				th.check(t)
			}
		})
	}
	for spec, want := range pinnedDegrees {
		if got := catalogProblem(t, spec).Degree(); got != want {
			t.Errorf("%s: degree %d, pinned %d", spec, got, want)
		}
	}
}

// catalogProblem builds a spec line through the catalog.
func catalogProblem(t *testing.T, spec string) CountingProblem {
	t.Helper()
	w, err := ParseWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w.Problem
}

func checkSizing(t *testing.T, s sizing) {
	t.Helper()
	var p Problem
	if s.build == nil {
		p = catalogProblem(t, s.what)
	} else if built, err := s.build(); err != nil {
		t.Fatalf("%s: %v", s.what, err)
	} else {
		p = built
	}
	if p.Degree() != s.degree || p.Width() != s.width {
		t.Errorf("%s: Degree %d, Width %d; the closed form is %d, %d", s.what, p.Degree(), p.Width(), s.degree, s.width)
	}
	if symbols := (p.Degree() + 1) * p.Width() * p.NumPrimes(); float64(symbols) > s.bound {
		t.Errorf("%s: proof of %d symbols (degree %d, width %d, %d primes) exceeds the theorem's %.0f",
			s.what, symbols, p.Degree(), p.Width(), p.NumPrimes(), s.bound)
	}
}

// checkFormParts is the shape of the Theorem 13 circuit on the 6-clique
// form of an N-vertex graph: R = 7^⌈log₂N⌉ ≤ 7·N^ω terms, each computed
// on its own from N×N matrices, that sum to the form — over a prime of
// the width proofs run at.
func checkFormParts(t *testing.T) {
	f := ff.Must(1<<61 - 1)
	for _, n := range []int{2, 4, 8} {
		sm, err := cliques.BuildSubsetMatrix(graph.Gnp(n, 0.7, int64(n)), 1)
		if err != nil {
			t.Fatal(err)
		}
		chi, err := matrix.FromSlice(f, sm.N, sm.N, sm.Entries)
		if err != nil {
			t.Fatal(err)
		}
		form, err := cliques.NewUniformForm(f, chi)
		if err != nil {
			t.Fatal(err)
		}
		dc, _ := tensor.Strassen().ForSize(n)
		if dc.R() != strassenRank(n) || float64(dc.R()) > 7*math.Pow(float64(n), omega) {
			t.Errorf("N=%d: %d terms, want %d ≤ 7·N^ω", n, dc.R(), strassenRank(n))
		}
		sum := uint64(0)
		for r := 0; r < dc.R(); r++ {
			term, err := form.TermAt(dc, r)
			if err != nil {
				t.Fatal(err)
			}
			sum = f.Add(sum, term)
		}
		if direct := form.EvalDirect(); sum != direct {
			t.Errorf("N=%d: the %d terms sum to %d, the form is %d", n, dc.R(), sum, direct)
		}
	}
}

// checkTrianglesFallInM sweeps the density at n = 32: the proof never
// grows as edges are added, and from 343 parts at p = 0.02 it is down to
// 7 at p = 0.9.
func checkTrianglesFallInM(t *testing.T) {
	var parts []int
	for _, p := range []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.9} {
		parts = append(parts, catalogProblem(t, fmt.Sprintf("triangles n=32 p=%g", p)).Degree()/3+1)
	}
	if !slices.IsSortedFunc(parts, func(a, b int) int { return b - a }) || parts[0] != 343 || parts[len(parts)-1] != 7 {
		t.Errorf("triangles n=32: parts %v over the density sweep, want falling from 343 to 7", parts)
	}
}

// checkSplitSparseParts: the parts of Theorem 4 are the parts of the
// Theorem 3 proof — R/m' of them, each of m' entries with 2m ≤ m' < 14m —
// and being independent they may be summed by any number of workers.
func checkSplitSparseParts(t *testing.T) {
	for _, n := range []int{48, 96} {
		g := graph.Gnp(n, 8/float64(n), 3)
		p, err := triangles.NewProblem(g, tensor.Strassen())
		if err != nil {
			t.Fatal(err)
		}
		parts := p.Degree()/3 + 1
		if size := strassenRank(n) / parts; parts != triangleParts(n, g.M()) || size < 2*g.M() || size >= 14*g.M() {
			t.Errorf("n=%d m=%d: %d parts of %d entries, want %d parts of Θ(m) entries", n, g.M(), parts, size, triangleParts(n, g.M()))
		}
		want := triangles.CountEdgeIterator(g)
		for _, workers := range []int{1, 3, parts + 1} {
			if got, err := triangles.CountSplitSparse(g, tensor.Strassen(), workers); err != nil || got != want {
				t.Errorf("n=%d: split/sparse over %d workers = %d, %v; want %d", n, workers, got, err, want)
			}
		}
	}
}

// checkAYZ: the count does not depend on how many of the Δ label nodes
// run at once. What Δ is — the threshold CountAYZ splits at — is checked
// beside it, in internal/triangles' TestDeltaMonotone.
func checkAYZ(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		g := graph.Gnp(n, 6/float64(n), 5)
		want := triangles.CountEdgeIterator(g)
		for _, workers := range []int{1, 4, g.M()} {
			if got, err := triangles.CountAYZ(g, tensor.Strassen(), workers); err != nil || got != want {
				t.Errorf("n=%d m=%d: AYZ over %d label workers = %d, %v; want %d", n, g.M(), workers, got, err, want)
			}
		}
	}
}

// checkRadius runs one triangle instance on K = 8 nodes with the radius
// f set to cover exactly two node blocks: zero, one and two lying nodes
// decode to the fault-free proof with exactly the liars named, and a
// third liar is a typed refusal.
func checkRadius(t *testing.T) {
	const k = 8
	p := catalogProblem(t, "triangles n=24 p=0.3 seed=9")
	f := 0
	for f < 2*((p.Degree()+1+2*f+k-1)/k) {
		f++
	}
	run := func(liars ...int) (*Proof, *Report, error) {
		opts := []Option{WithNodes(k), WithFaultTolerance(f), WithSeed(1)}
		if len(liars) > 0 {
			opts = append(opts, WithAdversary(LyingNodes(1, liars...)))
		}
		return RunProblem(context.Background(), p, opts...)
	}
	clean, _, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for _, liars := range [][]int{nil, {2}, {2, 5}} {
		proof, rep, err := run(liars...)
		if err != nil {
			t.Fatalf("liars %v within radius %d: %v", liars, f, err)
		}
		if !slices.Equal(rep.SuspectNodes, liars) || !rep.Verified {
			t.Errorf("liars %v: suspects %v, verified %v", liars, rep.SuspectNodes, rep.Verified)
		}
		if !sameProofBytes(t, clean, proof) {
			t.Errorf("liars %v: proof differs from the fault-free run's", liars)
		}
	}
	if _, _, err := run(1, 2, 5); !errors.Is(err, ErrDecodeFailure) {
		t.Errorf("three liars against a radius of two blocks: %v, want ErrDecodeFailure", err)
	}
}

// pointCounter is the broadcast bus with a tally of the points each node
// sent shares for.
type pointCounter struct {
	Transport
	mu     sync.Mutex
	points map[int]int
}

func (c *pointCounter) Send(ctx context.Context, m NodeShares) error {
	c.mu.Lock()
	c.points[m.ID] += m.Hi - m.Lo
	c.mu.Unlock()
	return c.Transport.Send(ctx, m)
}

// checkTradeoff sweeps the Round Table size on one 6-clique instance:
// the e points are dealt ⌈e/K⌉ or ⌊e/K⌋ to a node (§1.4: per-node work
// falls as 1/K, the total stays e), and the proof does not depend on K.
func checkTradeoff(t *testing.T) {
	p := catalogProblem(t, "cliques n=8 k=6 p=0.7 seed=11")
	e := p.Degree() + 1
	var first *Proof
	for _, k := range []int{1, 2, 3, 4, 7, 8, 16, 32} {
		counter := &pointCounter{points: map[int]int{}}
		proof, rep, err := RunProblem(context.Background(), p, WithNodes(k), WithSeed(6),
			WithTransport(func(k int) (Transport, error) {
				counter.Transport = NewBroadcastBus(k)
				return counter, nil
			}))
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if rep.CodeLength != e || len(counter.points) != k {
			t.Errorf("K=%d: code length %d over %d nodes, want %d over %d", k, rep.CodeLength, len(counter.points), e, k)
		}
		total := 0
		for id, n := range counter.points {
			if n != e/k && n != (e+k-1)/k {
				t.Errorf("K=%d: node %d evaluated %d points, want ⌊e/K⌋ = %d or ⌈e/K⌉ = %d", k, id, n, e/k, (e+k-1)/k)
			}
			total += n
		}
		if total != e {
			t.Errorf("K=%d: %d points evaluated in total, want e = %d", k, total, e)
		}
		if first == nil {
			first = proof
		} else if !sameProofBytes(t, first, proof) {
			t.Errorf("K=%d: proof differs from the K=1 proof", k)
		}
	}
}

func sameProofBytes(t *testing.T, a, b *Proof) bool {
	t.Helper()
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}
