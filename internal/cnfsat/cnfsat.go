// Package cnfsat implements the paper's Theorem 8(1): a Camelot algorithm
// counting CNF satisfying assignments with proof size and time O*(2^{v/2}).
// The route (Appendix A.2) splits the variables in half and reduces to
// counting orthogonal Boolean vector pairs: row i of A marks the clauses
// a first-half assignment leaves entirely unsatisfied, row k of B does
// the same for second-half assignments, and (i, k) satisfies the formula
// iff the rows are orthogonal.
package cnfsat

import (
	"fmt"
	"math/big"
	"math/rand"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/orthvec"
	"camelot/internal/plan"
)

// Formula is a CNF formula. Literals are nonzero integers: +v means
// variable v, -v its negation, v in 1..V.
type Formula struct {
	V       int
	Clauses [][]int
}

// Validate checks literal ranges and non-empty clauses.
func (f *Formula) Validate() error {
	if f.V < 2 {
		return fmt.Errorf("cnfsat: need at least 2 variables, got %d", f.V)
	}
	if len(f.Clauses) == 0 {
		return fmt.Errorf("cnfsat: formula has no clauses")
	}
	for ci, cl := range f.Clauses {
		if len(cl) == 0 {
			return fmt.Errorf("cnfsat: clause %d is empty", ci)
		}
		for _, lit := range cl {
			v := lit
			if v < 0 {
				v = -v
			}
			if v < 1 || v > f.V {
				return fmt.Errorf("cnfsat: clause %d has literal %d out of range", ci, lit)
			}
		}
	}
	return nil
}

// Problem is the Camelot #CNFSAT problem: an orthogonal-vectors problem
// over the two half-assignment matrices, to which it delegates.
type Problem struct {
	ov      *orthvec.OVProblem
	formula *Formula
	v1, v2  int
}

var (
	_ core.Problem         = (*Problem)(nil)
	_ core.CompiledProblem = (*Problem)(nil)
)

// NewProblem builds the Theorem 8(1) problem. The first ⌈v/2⌉ variables
// form the A side, the rest the B side.
func NewProblem(f *Formula) (*Problem, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	v1 := (f.V + 1) / 2
	v2 := f.V - v1
	if v1 > 24 || v2 > 24 {
		return nil, fmt.Errorf("cnfsat: half-assignment table 2^%d too large", v1)
	}
	m := len(f.Clauses)
	a := make([]uint8, (1<<uint(v1))*m)
	b := make([]uint8, (1<<uint(v2))*m)
	for i := 0; i < 1<<uint(v1); i++ {
		for j, cl := range f.Clauses {
			if satisfiesNoLiteral(cl, i, 1, v1) {
				a[i*m+j] = 1
			}
		}
	}
	for k := 0; k < 1<<uint(v2); k++ {
		for j, cl := range f.Clauses {
			if satisfiesNoLiteral(cl, k, v1+1, f.V) {
				b[k*m+j] = 1
			}
		}
	}
	am, err := orthvec.NewBoolMatrix(1<<uint(v1), m, a)
	if err != nil {
		return nil, err
	}
	bm, err := orthvec.NewBoolMatrix(1<<uint(v2), m, b)
	if err != nil {
		return nil, err
	}
	ov, err := orthvec.NewOVProblem(am, bm)
	if err != nil {
		return nil, err
	}
	return &Problem{ov: ov, formula: f, v1: v1, v2: v2}, nil
}

// Width implements core.Problem.
func (p *Problem) Width() int { return p.ov.Width() }

// Degree implements core.Problem.
func (p *Problem) Degree() int { return p.ov.Degree() }

// MinModulus implements core.Problem.
func (p *Problem) MinModulus() uint64 { return p.ov.MinModulus() }

// NumPrimes implements core.Problem.
func (p *Problem) NumPrimes() int { return p.ov.NumPrimes() }

// Evaluate implements core.Problem.
func (p *Problem) Evaluate(q, x0 uint64) ([]uint64, error) { return p.ov.Evaluate(q, x0) }

// Compile implements plan.Compiler, inheriting the orthogonal vectors
// compiled path: the half-assignment matrices are large (2^{v/2} rows),
// so amortizing the per-prime Lagrange setup matters here most.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) {
	return p.ov.Compile(f)
}

// satisfiesNoLiteral reports whether the assignment (bit b of mask =
// value of variable lo+b) satisfies none of the clause's literals in the
// variable window [lo, hi].
func satisfiesNoLiteral(clause []int, mask int, lo, hi int) bool {
	for _, lit := range clause {
		v := lit
		if v < 0 {
			v = -v
		}
		if v < lo || v > hi {
			continue
		}
		bit := (mask >> uint(v-lo)) & 1
		if (lit > 0 && bit == 1) || (lit < 0 && bit == 0) {
			return false
		}
	}
	return true
}

// Name implements core.Problem, overriding the OV name.
func (p *Problem) Name() string {
	return fmt.Sprintf("#cnfsat(v=%d,m=%d)", p.formula.V, len(p.formula.Clauses))
}

// CountSolutions recovers #SAT: the pair (i, k) contributes iff row i of
// A and row k of B are orthogonal (no clause unsatisfied by both
// halves... i.e. every clause satisfied), so #SAT = Σ_i c_i.
func (p *Problem) CountSolutions(proof *core.Proof) (*big.Int, error) {
	return p.ov.TotalPairs(proof)
}

// CountBrute enumerates all 2^v assignments — the ground truth for
// small formulas.
func CountBrute(f *Formula) *big.Int {
	count := big.NewInt(0)
	one := big.NewInt(1)
	for mask := 0; mask < 1<<uint(f.V); mask++ {
		sat := true
		for _, cl := range f.Clauses {
			clauseSat := false
			for _, lit := range cl {
				v := lit
				if v < 0 {
					v = -v
				}
				bit := (mask >> uint(v-1)) & 1
				if (lit > 0 && bit == 1) || (lit < 0 && bit == 0) {
					clauseSat = true
					break
				}
			}
			if !clauseSat {
				sat = false
				break
			}
		}
		if sat {
			count.Add(count, one)
		}
	}
	return count
}

// RandomFormula draws a uniform k-CNF with the given seed-driven clause
// structure, for experiments and workload specs (no clauses when there
// is no variable to draw a literal over).
func RandomFormula(v, m, k int, seed int64) *Formula {
	rng := newRng(seed)
	f := &Formula{V: v}
	if v < 1 {
		return f
	}
	f.Clauses = make([][]int, m)
	for j := range f.Clauses {
		cl := make([]int, k)
		for i := range cl {
			lit := rng.Intn(v) + 1
			if rng.Intn(2) == 1 {
				lit = -lit
			}
			cl[i] = lit
		}
		f.Clauses[j] = cl
	}
	return f
}

// newRng isolates the math/rand dependency.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
