package camelot

// The permanent, Hamiltonian and orthogonal-vectors designs declare the
// degree their proof polynomial has, not the naive bound of their
// construction: the alternating sums over the enumerated half cancel
// every monomial above 2·half in the swept variables, and an OV summand
// has one factor per set bit of its B row. These tests hold each
// tightened Degree to the same polynomial prepared at the naive bound:
// its coefficients up to the new degree agree and the ones above are
// zero, and on the golden instances the top coefficient is nonzero, so
// the bound is exact there and not just valid.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"camelot/internal/cnfsat"
	"camelot/internal/core"
	"camelot/internal/graph"
	"camelot/internal/hamilton"
	"camelot/internal/orthvec"
	"camelot/internal/permanent"
)

// declared is a problem declared at degree d over primes from at least
// minQ; the engine prepares the same polynomial at that size.
type declared struct {
	core.CompiledProblem
	d    int
	minQ uint64
}

func (p declared) Degree() int { return p.d }

func (p declared) MinModulus() uint64 { return max(p.CompiledProblem.MinModulus(), p.minQ) }

// dSweptNaive is (n+half)(2^half−1): n row (or walk-step) factors and
// half sign factors, composed with deg D = 2^half − 1.
func dSweptNaive(n, half int) int { return (n + half) * (1<<half - 1) }

// checkSamePolynomial prepares p at dNaive and at its declared degree d
// on one node with no fault tolerance and compares the two proofs
// coefficient by coefficient over the primes they share. A longer
// codeword may need a larger NTT order and so other primes; the run at d
// starts its prime search at the naive run's first prime, which serves
// the smaller order too. With exact, the top coefficient must also be
// nonzero.
func checkSamePolynomial(t testing.TB, what string, p core.CompiledProblem, dNaive int, exact bool) {
	t.Helper()
	d := p.Degree()
	if d > dNaive {
		t.Fatalf("%s: declared degree %d above the naive bound %d", what, d, dNaive)
	}
	opts := []Option{WithNodes(1), WithFaultTolerance(0), WithSeed(1)}
	naive, _, err := RunProblem(context.Background(), declared{p, dNaive, 0}, opts...)
	if err != nil {
		t.Fatalf("%s at degree %d: %v", what, dNaive, err)
	}
	tight, _, err := RunProblem(context.Background(), declared{p, d, naive.Primes[0]}, opts...)
	if err != nil {
		t.Fatalf("%s at degree %d: %v", what, d, err)
	}
	if tight.Primes[0] != naive.Primes[0] {
		t.Fatalf("%s: the runs share no prime: %v, %v", what, naive.Primes, tight.Primes)
	}
	for _, q := range tight.Primes {
		if naive.Coeffs[q] == nil {
			continue
		}
		for w, coeffs := range naive.Coeffs[q] {
			got := tight.Coeffs[q][w]
			for i, c := range coeffs {
				if i <= d && got[i] != c || i > d && c != 0 {
					t.Fatalf("%s mod %d: coefficient %d is %d at degree %d, %d at degree %d",
						what, q, i, c, dNaive, got[min(i, d)], d)
				}
			}
			if exact && got[d] == 0 {
				t.Errorf("%s mod %d: top coefficient %d is zero, the declared degree is not exact", what, q, d)
			}
		}
	}
}

// mustProblem returns p, failing t on err.
func mustProblem(t testing.TB) func(core.CompiledProblem, error) core.CompiledProblem {
	return func(p core.CompiledProblem, err error) core.CompiledProblem {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// testGraphs is G(n, 1/2) beside the empty and the complete graph.
func testGraphs(n int) map[string]*graph.Graph {
	return map[string]*graph.Graph{"gnp": graph.Gnp(n, 0.5, int64(n)), "empty": graph.New(n), "complete": graph.Complete(n)}
}

func TestTightDegreePermanent(t *testing.T) {
	must := mustProblem(t)
	for n := 2; n <= 13; n++ {
		p := must(permanent.NewProblem(RandomIntMatrix(n, int64(n))))
		checkSamePolynomial(t, fmt.Sprintf("permanent n=%d", n), p, dSweptNaive(n, n/2), false)
	}
}

func TestTightDegreeHamilton(t *testing.T) {
	must := mustProblem(t)
	for n := 2; n <= 13; n++ {
		for name, g := range testGraphs(n) {
			if n >= 3 {
				p := must(hamilton.NewProblem(g))
				checkSamePolynomial(t, fmt.Sprintf("hamilton cycles %s n=%d", name, n), p, dSweptNaive(n, (n-1)/2), false)
			}
			p := must(hamilton.NewPathProblem(g))
			checkSamePolynomial(t, fmt.Sprintf("hamilton paths %s n=%d", name, n), p, dSweptNaive(n, n/2), false)
		}
	}
}

// TestTightDegreeOV covers random OV instances, B of density 0 (no set
// bit) to 1 among them, and random CNF formulas through cnfsat.
func TestTightDegreeOV(t *testing.T) {
	must := mustProblem(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		n, cols := 1+rng.Intn(40), 1+rng.Intn(12)
		pb := []float64{0, 0.1, 0.3, 0.7, 1}[i%5]
		a, b, err := boolMatrices(n, cols, RandomBoolMatrix(n, cols, rng.Float64(), int64(i)), RandomBoolMatrix(n, cols, pb, int64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		checkSamePolynomial(t, fmt.Sprintf("ov n=%d t=%d pb=%g", n, cols, pb), must(orthvec.NewOVProblem(a, b)), cols*(n-1), false)
	}
	for v := 2; v <= 11; v++ {
		for _, clauses := range []int{1, 5, 20} {
			p := must(cnfsat.NewProblem(cnfsat.RandomFormula(v, clauses, min(3, v), int64(v*clauses))))
			checkSamePolynomial(t, fmt.Sprintf("cnfsat vars=%d clauses=%d", v, clauses), p, clauses*(1<<((v+1)/2)-1), false)
		}
	}
}

// TestTightDegreeExact holds the golden instances, and decode_bound's
// permanent, to a nonzero top coefficient at the declared degree.
func TestTightDegreeExact(t *testing.T) {
	for spec, dNaive := range map[string]int{
		"permanent": dSweptNaive(10, 5), "permanent n=12": dSweptNaive(12, 6),
		"hamilton": dSweptNaive(9, 4), "cnfsat": 20 * (1<<6 - 1), "ov": 16 * 127,
	} {
		checkSamePolynomial(t, spec, catalogProblem(t, spec).(core.CompiledProblem), dNaive, true)
	}
}

// FuzzTightDegree lets its bytes choose a small permanent matrix, graph
// or OV instance and runs the same-polynomial check on it.
func FuzzTightDegree(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 3, 0, 255, 7})
	f.Add([]byte{1, 4, 0xff, 0x0f, 0xf0})
	f.Add([]byte{2, 3, 0x5a, 0xa5})
	f.Add([]byte{3, 9, 3, 0xff, 0})
	f.Add([]byte{3, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		bit := func(i int) bool { return at(2+i/8)>>(i%8)&1 == 1 }
		must := mustProblem(t)
		switch kind, size := at(0)%4, int(at(1)); kind {
		case 0:
			n := 2 + size%6
			a := make([][]int64, n)
			for i := range a {
				a[i] = make([]int64, n)
				for j := range a[i] {
					a[i][j] = int64(int8(at(2 + i*n + j)))
				}
			}
			checkSamePolynomial(t, fmt.Sprintf("permanent %v", a), must(permanent.NewProblem(a)), dSweptNaive(n, n/2), false)
		case 1, 2:
			n := 3 + size%6
			g := graph.New(n)
			for e, uv := 0, 0; uv < n*n; uv++ {
				if u, v := uv/n, uv%n; u < v {
					if bit(e) {
						g.AddEdge(u, v)
					}
					e++
				}
			}
			if kind == 1 {
				checkSamePolynomial(t, fmt.Sprintf("hamilton cycles %v", g.Edges()), must(hamilton.NewProblem(g)), dSweptNaive(n, (n-1)/2), false)
			} else {
				checkSamePolynomial(t, fmt.Sprintf("hamilton paths %v", g.Edges()), must(hamilton.NewPathProblem(g)), dSweptNaive(n, n/2), false)
			}
		case 3:
			n, cols := 1+size%10, 1+int(at(2))%6
			bits := make([]uint8, 2*n*cols)
			for i := range bits {
				if bit(8 + i) {
					bits[i] = 1
				}
			}
			a, b, err := boolMatrices(n, cols, bits[:n*cols], bits[n*cols:])
			if err != nil {
				t.Fatal(err)
			}
			checkSamePolynomial(t, fmt.Sprintf("ov n=%d t=%d %v", n, cols, bits), must(orthvec.NewOVProblem(a, b)), cols*(n-1), false)
		}
	})
}
