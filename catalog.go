package camelot

// The catalog: the one table of problem kinds. A kind is declared here
// and nowhere else — its name, its instance fields with their defaults
// and help text, the seeded builder that turns resolved fields into a
// problem, and how its answer reads. Everything else that needs the
// list derives it from this table: ParseWorkload, Canonical and Digest
// (spec.go), the control protocol's worker-side constructors
// (registered below), the CLI's per-kind subcommands, flags and usage
// text (cmd/camelot), and the kind lists the tests iterate. Adding or
// changing a kind is one entry; lint_test.go refuses a kind name spelled
// out in any other non-test file of this package or of cmd/camelot.
//
// Field defaults are digest material: Canonical spells every field out
// with its default applied, and Digest hashes that line, so changing a
// default moves the proof-cache key of every spec that omitted it.

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"

	"camelot/internal/chromatic"
	"camelot/internal/cnfsat"
	"camelot/internal/conv3sum"
	"camelot/internal/core"
	"camelot/internal/csp"
	"camelot/internal/graph"
	"camelot/internal/orthvec"
	"camelot/internal/setcover"
	"camelot/internal/tensor"
)

// Field is one instance parameter of a kind: `name=value` in a spec
// line, `-name value` on the command line.
type Field struct {
	Name string
	// Default is the value an omitting spec gets, in spec syntax.
	Default string
	Help    string
	// real fields parse as floats (probabilities), the rest as ints.
	real bool
}

// Kind describes one catalog entry to a front end. Fields are in
// canonical order; every kind also takes the implicit leading `seed`
// (default 1) that drives its instance generator.
type Kind struct {
	Name   string
	Help   string
	Fields []Field

	// label heads the default answer line, "<label>: <count>".
	label string
	// build constructs the instance from resolved fields. A kind whose
	// result is more than the one integer Count reports sets its
	// countingProblem's text.
	build func(a fieldValues) (CountingProblem, error)
}

// Kinds returns the catalog, in declaration order.
func Kinds() []Kind { return append([]Kind(nil), catalog...) }

// fieldValues are a spec's resolved fields, by name.
type fieldValues struct {
	n map[string]int
	x map[string]float64
}

func (a fieldValues) seed() int64 { return int64(a.n[seedField.Name]) }

var seedField = Field{Name: "seed", Default: "1", Help: "instance generator seed"}

func count(name, def, help string) Field { return Field{Name: name, Default: def, Help: help} }
func prob(name, def, help string) Field {
	return Field{Name: name, Default: def, Help: help, real: true}
}

var catalog = []Kind{
	{
		Name: "triangles", Help: "count triangles of G(n,p) (Theorem 3)", label: "triangles",
		Fields: []Field{count("n", "32", "vertices"), prob("p", "0.3", "edge probability")},
		build: func(a fieldValues) (CountingProblem, error) {
			return NewTriangleProblem(RandomGraph(a.n["n"], a.x["p"], a.seed()))
		},
	},
	{
		Name: "cliques", Help: "count k-cliques of G(n,p) (Theorem 1)", label: "k-cliques",
		Fields: []Field{count("n", "8", "vertices"), count("k", "6", "clique size (multiple of 6)"), prob("p", "0.7", "edge probability")},
		build: func(a fieldValues) (CountingProblem, error) {
			return NewCliqueProblem(RandomGraph(a.n["n"], a.x["p"], a.seed()), a.n["k"])
		},
	},
	{
		Name: "permanent", Help: "permanent of a random n×n matrix with entries in [0,3] (Theorem 8(2))", label: "permanent",
		Fields: []Field{count("n", "10", "matrix dimension")},
		build: func(a fieldValues) (CountingProblem, error) {
			return NewPermanentProblem(RandomIntMatrix(a.n["n"], a.seed()))
		},
	},
	{
		Name: "cnfsat", Help: "count satisfying assignments of a random CNF (Theorem 8(1))", label: "#SAT",
		Fields: []Field{count("vars", "12", "variables"), count("clauses", "20", "clauses"), count("width", "3", "literals per clause")},
		build: func(a fieldValues) (CountingProblem, error) {
			return NewCNFProblem(RandomCNF(a.n["vars"], a.n["clauses"], a.n["width"], a.seed()))
		},
	},
	{
		Name: "hamilton", Help: "count Hamiltonian cycles of G(n,p) (Theorem 8(3))", label: "hamiltonian cycles",
		Fields: []Field{count("n", "9", "vertices"), prob("p", "0.5", "edge probability")},
		build: func(a fieldValues) (CountingProblem, error) {
			return NewHamiltonianCycleProblem(RandomGraph(a.n["n"], a.x["p"], a.seed()))
		},
	},
	{
		// Count is the number of acyclic orientations, |χ_G(-1)| = Σ|c_k|.
		Name: "chromatic", Help: "chromatic polynomial of G(n,p) (Theorem 6)",
		Fields: []Field{count("n", "10", "vertices"), prob("p", "0.4", "edge probability")},
		build: func(a fieldValues) (CountingProblem, error) {
			p, err := chromatic.NewProblem(graph.Gnp(a.n["n"], a.x["p"], a.seed()))
			if err != nil {
				return nil, err
			}
			orientations := func(proof *Proof) (*big.Int, error) {
				coeffs, err := p.Coefficients(proof)
				sum := new(big.Int)
				for _, c := range coeffs {
					sum.Add(sum, new(big.Int).Abs(c))
				}
				return sum, err
			}
			text := func(proof *Proof) (string, error) {
				coeffs, err := p.Coefficients(proof)
				return fmt.Sprintf("χ_G(t) coefficients (c_0..c_%d): %v", len(coeffs)-1, coeffs), err
			}
			return countingProblem{CompiledProblem: p, count: orientations, text: text}, nil
		},
	},
	{
		Name: "setcover", Help: "count ordered t-tuples of a random set family covering [n] (Theorem 9)", label: "t-covers",
		Fields: []Field{count("n", "10", "universe size"), count("sets", "30", "family size"), count("t", "4", "cover size")},
		build: func(a fieldValues) (CountingProblem, error) {
			return counting((*setcover.CoverProblem).RecoverCovers)(
				setcover.NewCoverProblem(randomFamily(a.n["n"], a.n["sets"], a.seed()), a.n["n"], a.n["t"]))
		},
	},
	{
		Name: "ov", Help: "count orthogonal pairs between two random n×t 0/1 matrices of density 0.3 (Theorem 11(1))", label: "orthogonal pairs",
		Fields: []Field{count("n", "128", "vectors per side"), count("t", "16", "dimension")},
		build: func(a fieldValues) (CountingProblem, error) {
			n, t := a.n["n"], a.n["t"]
			am, bm, err := boolMatrices(n, t, RandomBoolMatrix(n, t, 0.3, a.seed()), RandomBoolMatrix(n, t, 0.3, a.seed()+1))
			if err != nil {
				return nil, err
			}
			return counting(summed((*orthvec.OVProblem).Counts))(orthvec.NewOVProblem(am, bm))
		},
	},
	{
		Name: "conv3sum", Help: "count Convolution3SUM witnesses in a random array (Theorem 11(3))", label: "convolution-3SUM solutions",
		Fields: []Field{count("n", "32", "array length (even)"), count("bits", "6", "integer bit width")},
		build: func(a fieldValues) (CountingProblem, error) {
			return counting(summed((*conv3sum.Problem).Counts))(
				conv3sum.NewProblem(randomArray(a.n["n"], a.n["bits"], a.seed()), a.n["bits"]))
		},
	},
	{
		// Count is N_m, the assignments satisfying every constraint.
		Name: "csp", Help: "assignments of a random 2-CSP by satisfied-constraint count (Theorem 12)",
		Fields: []Field{count("n", "12", "variables (multiple of 6)"), count("sigma", "2", "alphabet size"), count("m", "8", "constraints")},
		build: func(a fieldValues) (CountingProblem, error) {
			p, err := csp.NewProblem(csp.RandomSystem(a.n["n"], a.n["sigma"], a.n["m"], 0.5, a.seed()), tensor.Strassen())
			if err != nil {
				return nil, err
			}
			satisfying := func(proof *Proof) (*big.Int, error) {
				dist, err := p.Distribution(proof)
				if err != nil {
					return nil, err
				}
				return dist[len(dist)-1], nil
			}
			text := func(proof *Proof) (string, error) {
				dist, err := p.Distribution(proof)
				var b strings.Builder
				b.WriteString("assignments by satisfied-constraint count:")
				for k, v := range dist {
					if v.Sign() != 0 {
						fmt.Fprintf(&b, "\n  %2d satisfied: %v", k, v)
					}
				}
				return b.String(), err
			}
			return countingProblem{CompiledProblem: p, count: satisfying, text: text}, nil
		},
	},
}

// summed turns a per-index count recovery into its total.
func summed[P any](counts func(P, *core.Proof) ([]int64, error)) func(P, *core.Proof) (*big.Int, error) {
	return func(p P, proof *core.Proof) (*big.Int, error) {
		cs, err := counts(p, proof)
		total := new(big.Int)
		for _, c := range cs {
			total.Add(total, big.NewInt(c))
		}
		return total, err
	}
}

// --- Seeded instance generators -----------------------------------------------

// RandomCNF draws a uniform width-w CNF over vars variables,
// deterministically in the seed.
func RandomCNF(vars, clauses, width int, seed int64) *CNFFormula {
	return cnfsat.RandomFormula(vars, clauses, width, seed)
}

// RandomIntMatrix draws an n×n matrix with entries in [0, 3],
// deterministically in the seed.
func RandomIntMatrix(n int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]int64, n)
	for i := range a {
		a[i] = make([]int64, n)
		for j := range a[i] {
			a[i][j] = rng.Int63n(4)
		}
	}
	return a
}

// RandomBoolMatrix returns an n×t row-major 0/1 matrix with the given
// density, deterministically in the seed.
func RandomBoolMatrix(n, t int, density float64, seed int64) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	bits := make([]uint8, n*t)
	for i := range bits {
		if rng.Float64() < density {
			bits[i] = 1
		}
	}
	return bits
}

// randomFamily draws size nonempty subsets of [n] as bit masks (none
// when [n] has no nonempty subset that fits a mask).
func randomFamily(n, size int, seed int64) []uint64 {
	if n < 1 || n > 64 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	full := uint64(1)<<uint(n) - 1
	var fam []uint64
	for len(fam) < size {
		if x := rng.Uint64() & full; x != 0 {
			fam = append(fam, x)
		}
	}
	return fam
}

// randomArray draws n values of the given bit width.
func randomArray(n, bits int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<uint(bits) - 1 // all ones from 64 bits up
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() & mask
	}
	return a
}
