package tutte

// Specializations of the Tutte polynomial (paper §1.5, highlight 4: "the
// Tutte polynomial subsumes a large number of #P-hard counting
// problems"). These let the Theorem 7 pipeline answer chromatic, flow,
// and reliability queries, and give the test suite a cross-validation
// path against the independent Theorem 6 implementation.

import (
	"fmt"
	"math/big"
)

// ChromaticAt evaluates the chromatic polynomial at integer t from Tutte
// coefficients: χ_G(t) = (-1)^{n-c} t^c · T_G(1-t, 0), where n is the
// vertex count and c the number of connected components.
func ChromaticAt(tutteCoeffs [][]*big.Int, n, components int, t int64) *big.Int {
	v := Eval(tutteCoeffs, 1-t, 0)
	tc := new(big.Int).Exp(big.NewInt(t), big.NewInt(int64(components)), nil)
	v.Mul(v, tc)
	if (n-components)%2 == 1 {
		v.Neg(v)
	}
	return v
}

// FlowAt evaluates the flow polynomial at integer t:
// F_G(t) = (-1)^{m-n+c} · T_G(0, 1-t), counting nowhere-zero Z_t-flows.
func FlowAt(tutteCoeffs [][]*big.Int, n, m, components int, t int64) *big.Int {
	v := Eval(tutteCoeffs, 0, 1-t)
	if (m-n+components)%2 == 1 {
		v.Neg(v)
	}
	return v
}

// SpanningTrees returns T_G(1,1): the number of maximal spanning forests
// (spanning trees when G is connected).
func SpanningTrees(tutteCoeffs [][]*big.Int) *big.Int { return Eval(tutteCoeffs, 1, 1) }

// Forests returns T_G(2,1): the number of spanning forests.
func Forests(tutteCoeffs [][]*big.Int) *big.Int { return Eval(tutteCoeffs, 2, 1) }

// AcyclicOrientations returns T_G(2,0) (Stanley's theorem).
func AcyclicOrientations(tutteCoeffs [][]*big.Int) *big.Int { return Eval(tutteCoeffs, 2, 0) }

// ReliabilityNumerator returns the numerator polynomial coefficients of
// the all-terminal reliability R_G(p) = Σ_k relK[k]·p^k, the probability
// that the surviving edges (each kept independently with probability p)
// span a connected graph, for a connected multigraph. It expands
// R(p) = Σ_{F spanning connected} p^{|F|}(1-p)^{m-|F|} from the
// random-cluster coefficients: the number of connected spanning edge
// sets of size s is Σ_j z[1][j] restricted to j = s with c = 1 — i.e.
// row c=1 of the Z coefficient matrix.
func ReliabilityNumerator(zCoeffs [][]*big.Int, m int) ([]*big.Int, error) {
	if len(zCoeffs) < 2 {
		return nil, fmt.Errorf("tutte: Z coefficients missing the c=1 row")
	}
	// connected[s] = number of spanning connected subgraphs with s edges
	// = coefficient of t^1 r^s in Z.
	connected := zCoeffs[1]
	out := make([]*big.Int, m+1)
	for k := range out {
		out[k] = big.NewInt(0)
	}
	// R(p) = Σ_s connected[s] p^s (1-p)^{m-s}: expand binomially.
	for s := 0; s < len(connected) && s <= m; s++ {
		if connected[s].Sign() == 0 {
			continue
		}
		for j := 0; j <= m-s; j++ {
			term := new(big.Int).Binomial(int64(m-s), int64(j))
			term.Mul(term, connected[s])
			if j%2 == 1 {
				term.Neg(term)
			}
			out[s+j].Add(out[s+j], term)
		}
	}
	return out, nil
}
