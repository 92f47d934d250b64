// Package conv3sum implements the paper's Theorem 11(3): a Camelot
// algorithm for counting Convolution3SUM solutions — indices i, ℓ with
// A[i] + A[ℓ] = A[i+ℓ] — with proof size and time Õ(nt²) for n integers
// of t bits. The proof polynomial (Appendix A.4) extends a t-bit ripple
// carry adder into a polynomial over Z_q and composes it with
// bit-column interpolants of the input array.
package conv3sum

import (
	"fmt"
	"math/big"

	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/plan"
	"camelot/internal/poly"
)

// Problem is the Convolution3SUM Camelot problem: P(i) = c_i counts the
// witnesses ℓ ∈ [n/2] with A[i] + A[ℓ] = A[i+ℓ], for i ∈ [n/2].
type Problem struct {
	a []uint64 // 1-based array packed at index 0..n-1
	n int      // even
	t int      // bit width
}

var (
	_ core.Problem         = (*Problem)(nil)
	_ core.CompiledProblem = (*Problem)(nil)
)

// NewProblem builds the problem for an array of n (even) t-bit integers.
// a[i] is the 1-based A[i+1].
func NewProblem(a []uint64, t int) (*Problem, error) {
	n := len(a)
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("conv3sum: need an even number of elements, got %d", n)
	}
	if t < 1 || t > 62 {
		return nil, fmt.Errorf("conv3sum: bit width %d out of range [1, 62]", t)
	}
	for i, v := range a {
		if v >= 1<<uint(t) {
			return nil, fmt.Errorf("conv3sum: A[%d] = %d exceeds %d bits", i+1, v, t)
		}
	}
	return &Problem{a: a, n: n, t: t}, nil
}

// Name implements core.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("conv3sum(n=%d,t=%d)", p.n, p.t) }

// Width implements core.Problem.
func (p *Problem) Width() int { return 1 }

// Degree implements core.Problem. In units of deg A_j = n-1: the carry
// chain gives deg c_j <= j, each product factor (1-w_j)(1-S_j)+w_jS_j
// degree <= j+2, plus the final (1-c_t): Σ_{j=1..t}(j+2) + t =
// t(t+1)/2 + 3t units.
func (p *Problem) Degree() int {
	units := p.t*(p.t+1)/2 + 3*p.t
	return units * (p.n - 1)
}

// MinModulus implements core.Problem: counts c_i <= n/2 need q > n, so
// one prime at the shared floor (crt.FloorModulus) always suffices.
func (p *Problem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(p.n + 1))
}

// NumPrimes implements core.Problem.
func (p *Problem) NumPrimes() int { return 1 }

// Evaluate implements core.Problem:
// P(x0) = Σ_{ℓ=1}^{n/2} T(A(x0), A(ℓ), A(x0+ℓ)) with the ripple-carry
// polynomial T of eq. (42). It is the compiled plan at one point.
func (p *Problem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	return []uint64{p.compile(f).at(x0)}, nil
}

// compiled is the Convolution3SUM Plan for one prime: the t bit-column
// interpolants are in coefficient form, computed once per compile; each
// point then costs one multipoint evaluation sweep plus the n/2
// ripple-carry products. The ring's transform scratch is pooled
// internally and at's scratch is per point, so one plan serves
// concurrent chunk tasks.
type compiled struct {
	p    *Problem
	f    ff.Field
	ring *poly.Ring
	cs   [][]uint64 // coefficient forms, read-only after compile
}

// Compile implements plan.Compiler.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) { return p.compile(f), nil }

// compile interpolates the t bit-columns over the field:
// A_j(i) = bit j of A[i] for i = 1..n.
func (p *Problem) compile(f ff.Field) *compiled {
	ring := poly.NewRing(f)
	points := make([]uint64, p.n)
	for i := range points {
		points[i] = uint64(i + 1)
	}
	cs := make([][]uint64, p.t)
	vals := make([]uint64, p.n)
	for j := 0; j < p.t; j++ {
		for i := 0; i < p.n; i++ {
			vals[i] = (p.a[i] >> uint(j)) & 1
		}
		cs[j] = ring.Interpolate(points, vals)
	}
	return &compiled{p: p, f: f, ring: ring, cs: cs}
}

// EvaluateBlock implements plan.Plan.
func (c *compiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	vals := make([]uint64, len(xs))
	for xi, x0 := range xs {
		vals[xi] = c.at(x0)
	}
	return plan.Rows(vals, 1), nil
}

// at is P(x0). The n/2+1 evaluation points of every column polynomial
// are batched through fast multipoint evaluation.
func (c *compiled) at(x0 uint64) uint64 {
	p, f := c.p, c.f
	half := p.n / 2
	pts := make([]uint64, half+1)
	pts[0] = x0 % f.Q
	for l := 1; l <= half; l++ {
		pts[l] = f.Add(x0%f.Q, uint64(l)%f.Q)
	}
	// colVals[j][idx] = A_j(pts[idx]).
	colVals := make([][]uint64, p.t)
	for j := range colVals {
		colVals[j] = c.ring.EvalMany(c.cs[j], pts)
	}
	y := make([]uint64, p.t) // A(x0)
	for j := range y {
		y[j] = colVals[j][0]
	}
	z := make([]uint64, p.t) // A(ℓ), exact bits
	w := make([]uint64, p.t) // A(x0+ℓ)
	total := uint64(0)
	for l := 1; l <= half; l++ {
		for j := 0; j < p.t; j++ {
			z[j] = (p.a[l-1] >> uint(j)) & 1
			w[j] = colVals[j][l]
		}
		total = f.Add(total, rippleCarryT(f, y, z, w))
	}
	return total
}

// rippleCarryT evaluates the 3t-variate adder-indicator polynomial T of
// eq. (42) at concrete field values: carries via the majority recurrence
// (41), digit agreement via the sum polynomial S.
func rippleCarryT(f ff.Field, y, z, w []uint64) uint64 {
	t := len(y)
	carry := uint64(0)
	prod := uint64(1)
	for j := 0; j < t; j++ {
		s := sumPoly(f, y[j], z[j], carry)
		carry = majPoly(f, y[j], z[j], carry)
		// (1-w_j)(1-s) + w_j s
		term := f.Add(f.Mul(f.Sub(1, w[j]), f.Sub(1, s)), f.Mul(w[j], s))
		prod = f.Mul(prod, term)
	}
	return f.Mul(prod, f.Sub(1, carry))
}

// sumPoly is S(b1,b2,b3): the XOR polynomial.
func sumPoly(f ff.Field, b1, b2, b3 uint64) uint64 {
	n1, n2, n3 := f.Sub(1, b1), f.Sub(1, b2), f.Sub(1, b3)
	s := f.Mul(f.Mul(n1, n2), b3)
	s = f.Add(s, f.Mul(f.Mul(n1, b2), n3))
	s = f.Add(s, f.Mul(f.Mul(b1, n2), n3))
	return f.Add(s, f.Mul(f.Mul(b1, b2), b3))
}

// majPoly is M(b1,b2,b3): the majority polynomial.
func majPoly(f ff.Field, b1, b2, b3 uint64) uint64 {
	n1, n2, n3 := f.Sub(1, b1), f.Sub(1, b2), f.Sub(1, b3)
	m := f.Mul(f.Mul(n1, b2), b3)
	m = f.Add(m, f.Mul(f.Mul(b1, n2), b3))
	m = f.Add(m, f.Mul(f.Mul(b1, b2), n3))
	return f.Add(m, f.Mul(f.Mul(b1, b2), b3))
}

// Counts recovers c_i = P(i) for i = 1..n/2.
func (p *Problem) Counts(proof *core.Proof) ([]int64, error) {
	q := proof.Primes[0]
	half := p.n / 2
	out := make([]int64, half)
	for i := 1; i <= half; i++ {
		v := proof.Eval(q, 0, uint64(i))
		if v > uint64(half) {
			return nil, fmt.Errorf("conv3sum: c_%d = %d exceeds %d — proof inconsistent", i, v, half)
		}
		out[i-1] = int64(v)
	}
	return out, nil
}

// TotalSolutions sums the counts.
func (p *Problem) TotalSolutions(proof *core.Proof) (*big.Int, error) {
	cs, err := p.Counts(proof)
	if err != nil {
		return nil, err
	}
	total := new(big.Int)
	for _, c := range cs {
		total.Add(total, big.NewInt(c))
	}
	return total, nil
}

// CountNaive is the O(n²) reference: per-i witness counts for i in
// [1, n/2].
func CountNaive(a []uint64) []int64 {
	n := len(a)
	half := n / 2
	out := make([]int64, half)
	for i := 1; i <= half; i++ {
		for l := 1; l <= half; l++ {
			if a[i-1]+a[l-1] == a[i+l-1] {
				out[i-1]++
			}
		}
	}
	return out
}
