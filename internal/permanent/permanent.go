// Package permanent implements the paper's Theorem 8(2): a Camelot
// algorithm for the permanent of an n×n integer matrix with proof size
// and time O*(2^{n/2}). The proof polynomial (Appendix A.5) plugs the
// bit-sweeping interpolation vector D(x) into half of Ryser's
// inclusion–exclusion formula; per A = Σ_{i<2^{n/2}} P(i), reconstructed
// over several primes with the CRT.
package permanent

import (
	"fmt"
	"math/big"
	"math/bits"

	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/plan"
)

// Problem is the Camelot permanent problem.
type Problem struct {
	a    [][]int64
	n    int
	half int // number of D(x)-swept columns
	phi  int64
	// numPrimes is NumPrimes, computed once: the verifier reads it for
	// every proof, and the bound is big-integer work.
	numPrimes int
}

var (
	_ core.Problem         = (*Problem)(nil)
	_ core.CompiledProblem = (*Problem)(nil)
)

// NewProblem builds the problem for a square integer matrix.
func NewProblem(a [][]int64) (*Problem, error) {
	n := len(a)
	if n < 2 || n > 40 {
		return nil, fmt.Errorf("permanent: n = %d out of supported range [2, 40]", n)
	}
	phi := int64(1)
	for _, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("permanent: matrix not square")
		}
		for _, v := range row {
			if v > phi {
				phi = v
			}
			if -v > phi {
				phi = -v
			}
		}
	}
	p := &Problem{a: a, n: n, half: n / 2, phi: phi}
	p.numPrimes = crt.PrimesFor(p.Bound().BitLen()+2, p.MinModulus())
	return p, nil
}

// Name implements core.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("permanent(n=%d)", p.n) }

// Width implements core.Problem.
func (p *Problem) Width() int { return 1 }

// Degree implements core.Problem: Q has total degree <= 2·half in its
// half arguments, composed with D of degree 2^half-1. Expanding the n
// row factors (rowP_i + rowS_i) picks rowS_i for the rows of some set T;
// the product over T of the suffix row sums survives Σ_s(-1)^{|s|} only
// if T covers all n-half enumerated columns, so at most half of the
// factors are prefix sums, each linear in z, and the sign product adds
// half more. The naive bound n+half counts the suffix factors too.
func (p *Problem) Degree() int {
	return 2 * p.half * (1<<uint(p.half) - 1)
}

// MinModulus implements core.Problem.
func (p *Problem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(1)<<uint(p.half) + 1)
}

// Bound returns n!·φ^n, an upper bound on |per A|.
func (p *Problem) Bound() *big.Int {
	b := new(big.Int).MulRange(1, int64(p.n))
	b.Mul(b, new(big.Int).Exp(big.NewInt(p.phi), big.NewInt(int64(p.n)), nil))
	return b
}

// NumPrimes implements core.Problem: enough primes for the signed CRT
// range (one extra bit for the sign).
func (p *Problem) NumPrimes() int { return p.numPrimes }

// Evaluate implements core.Problem: P(x0) = Q(D(x0)) per eq. (44), in
// O*(2^{n/2}) via a Gray-code sweep of the enumerated suffix half.
func (p *Problem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	n, half := p.n, p.half
	rest := n - half
	k := f.Kernel()
	am := p.reducedMatrix(f)
	// z_j = D_j(x0) for the first half of the z variables.
	z := f.BitSweepAt(half, x0)
	// Prefix row sums rowP_i = Σ_{j<half} a_ij z_j and prefix sign
	// Π_{j<half}(1-2z_j).
	rowP := make([]uint64, n)
	for i := 0; i < n; i++ {
		acc := uint64(0)
		row := am[i*n : i*n+half]
		for j := 0; j < half; j++ {
			acc = f.Add(acc, ff.MulK(row[j], z[j], k))
		}
		rowP[i] = acc
	}
	signP := uint64(1)
	if n%2 == 1 {
		signP = f.Neg(signP)
	}
	for j := 0; j < half; j++ {
		signP = ff.MulK(signP, f.Sub(1, ff.MulK(2%f.Q, z[j], k)), k)
	}
	// Gray-code sweep over the suffix assignments: maintain per-row
	// suffix sums and the suffix popcount.
	rowS := make([]uint64, n)
	total := uint64(0)
	gray := uint64(0)
	ones := 0
	for iter := uint64(0); ; iter++ {
		// Term for the current suffix.
		sign := signP
		if ones%2 == 1 {
			sign = f.Neg(sign)
		}
		prod := sign
		for i := 0; i < n && prod != 0; i++ {
			prod = ff.MulK(prod, f.Add(rowP[i], rowS[i]), k)
		}
		total = f.Add(total, prod)
		if iter+1 == 1<<uint(rest) {
			break
		}
		// Advance Gray code: flip bit tz(iter+1).
		bit := bits.TrailingZeros64(iter + 1)
		mask := uint64(1) << uint(bit)
		col := half + bit
		if gray&mask == 0 {
			gray |= mask
			ones++
			for i := 0; i < n; i++ {
				rowS[i] = f.Add(rowS[i], am[i*n+col])
			}
		} else {
			gray &^= mask
			ones--
			for i := 0; i < n; i++ {
				rowS[i] = f.Sub(rowS[i], am[i*n+col])
			}
		}
	}
	return []uint64{total}, nil
}

// reducedMatrix returns the matrix entries as canonical residues mod
// f.Q, row-major. Reducing once per call keeps the signed per-entry
// reductions out of the Gray-code sweep, which touches a column per
// step.
func (p *Problem) reducedMatrix(f ff.Field) []uint64 {
	n := p.n
	am := make([]uint64, n*n)
	for i, row := range p.a {
		for j, v := range row {
			am[i*n+j] = f.Reduce(v)
		}
	}
	return am
}

// compiled is the permanent Plan for one prime: the reduced matrix and
// the Lagrange evaluator's fixed factors are hoisted to compile time and
// only read afterwards; all sweep state is per-call scratch, so one plan
// serves concurrent chunk tasks.
type compiled struct {
	p    *Problem
	f    ff.Field
	am   []uint64              // reducedMatrix(f)
	amS  []uint64              // ShoupOf companions of am
	le   *ff.LagrangeEvaluator // grid 0..2^half-1
	qi   uint64                // MontOf(f.Q)
	sign uint64                // (-1)^n·R^{n+half} mod q, R = 2^64
}

// Compile implements plan.Compiler. The per-point Evaluate runs two
// dependent chains per point: the Lagrange vector behind D(x0) (three
// passes over the grid and a field inversion) and, per suffix
// assignment, the product of the n row sums. The compiled path runs both
// across a block instead: D(x) comes from ff's run kernel, which shares
// one window of inverted differences among consecutive points, and the
// Gray-code sweep keeps the points of a strip innermost, so each step
// multiplies one row's sums into a strip of independent products and the
// suffix row sums and Gray-code bookkeeping are paid once per strip.
//
// Every strip product is an ff.MulMont, which multiplies in R^-1 (R =
// 2^64), and each Gray term passes through half sign factors (1-2z_j)
// and n row sums: seeding the sign with (-1)^n·R^{n+half} cancels the
// R^-(n+half), so no value is converted into or out of Montgomery form.
//
// Deliberately NOT shared with Evaluate: verification re-evaluates
// through the per-point path, so the two independent implementations
// cross-check each other and a plan bug fails verification loudly
// instead of silently corrupting the recovered permanent.
// TestHamiltonVerifierIsSeparate (lint_test.go) holds Evaluate to that.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) {
	if f.Q%2 == 0 {
		return nil, fmt.Errorf("permanent: Montgomery sweep needs an odd modulus, got %d", f.Q)
	}
	am := p.reducedMatrix(f)
	amS := make([]uint64, len(am))
	for i, a := range am {
		amS[i] = ff.ShoupOf(a, f.Q)
	}
	sign := f.Mul(f.Exp(f.Q-1, uint64(p.n)), f.Exp(2, uint64(64*(p.n+p.half))))
	return &compiled{
		p: p, f: f, am: am, amS: amS,
		le: f.NewLagrangeEvaluatorZeroBased(1 << uint(p.half)),
		qi: ff.MontOf(f.Q), sign: sign,
	}, nil
}

// strip is the most points the sweep keeps innermost: the n prefix rows
// of a strip (n·strip words, 20 KB at the largest n) stay L1-resident
// across the 2^{n-half} Gray steps that reread them.
const strip = 64

// EvaluateBlock implements plan.Plan.
func (c *compiled) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	n, half := c.p.n, c.p.half
	totals := make([]uint64, len(xs))
	// Equal strips, so the arena is no larger than the block needs and no
	// strip is a short tail.
	strips := max(1, (len(xs)+strip-1)/strip)
	ms := (len(xs) + strips - 1) / strips
	// One arena for every strip: prefix rows, prefix signs, suffix row
	// sums, D(x) rows and the run kernel's scratch, whose words the running
	// products take over once D(x) is computed.
	buf := make([]uint64, (n+1+half)*ms+n+c.le.SweepScratch(ms))
	for lo := 0; lo < len(xs); lo += ms {
		hi := min(lo+ms, len(xs))
		c.evaluateStrip(xs[lo:hi], totals[lo:hi], buf)
	}
	return plan.Rows(totals, 1), nil
}

// evaluateStrip writes P(x) for the points xs (at most strip of them)
// into totals, which must be zero, working in buf.
func (c *compiled) evaluateStrip(xs, totals, buf []uint64) {
	f, am, qi := c.f, c.am, c.qi
	n, half := c.p.n, c.p.half
	m := len(xs)
	cut := func(words int) []uint64 {
		s := buf[:words:words]
		buf = buf[words:]
		return s
	}
	rowP, signP, rowS, z := cut(n*m), cut(m), cut(n), cut(half*m)
	c.le.BitSweepBlock(z, xs, buf)
	prod := buf[:m] // the kernel is done with its scratch
	// Prefix state per point, row-major by matrix row so a Gray step
	// streams over the strip: rowP[i·m+xi] = Σ_{j<half} a_ij z_j(x_xi) and
	// signP[xi] = (-1)^n R^n Π_{j<half} (1-2z_j(x_xi)), the R^half of
	// c.sign spent by the half Montgomery products that build it.
	clear(rowP)
	for i := 0; i < n; i++ {
		row := rowP[i*m : (i+1)*m]
		for j := 0; j < half; j++ {
			ff.MulAddVecShoup(row, z[j*m:(j+1)*m], am[i*n+j], c.amS[i*n+j], f.Q)
		}
	}
	for xi := range signP {
		signP[xi] = c.sign
	}
	for j := 0; j < half; j++ {
		for xi, zv := range z[j*m : (j+1)*m] {
			signP[xi] = ff.MulMont(signP[xi], f.Sub(1, f.Add(zv, zv)), f.Q, qi)
		}
	}
	// The Gray-code sweep over suffix assignments: the suffix row sums
	// rowS and the suffix popcount advance once per step for the whole
	// strip, and each step multiplies the row sums, one row per pass,
	// into the strip's products; the n Montgomery products spend the R^n
	// left in signP. The sums enter the multiplier unreduced (< 2q);
	// Evaluate keeps the scalar canonical MulK sweep, so the block/point
	// equivalence tests double as a differential check.
	clear(rowS)
	gray := uint64(0)
	ones := 0
	for iter := uint64(0); ; iter++ {
		src := signP
		for i := 0; i < n; i++ {
			ff.MulSumVecMont(prod, src, rowP[i*m:(i+1)*m], rowS[i], f.Q, qi)
			src = prod
		}
		if ones%2 == 1 {
			f.SubVec(totals, totals, prod)
		} else {
			f.AddVec(totals, totals, prod)
		}
		if iter+1 == 1<<uint(n-half) {
			break
		}
		bit := bits.TrailingZeros64(iter + 1)
		mask := uint64(1) << uint(bit)
		col := half + bit
		if gray&mask == 0 {
			gray |= mask
			ones++
			for i := 0; i < n; i++ {
				rowS[i] = f.Add(rowS[i], am[i*n+col])
			}
		} else {
			gray &^= mask
			ones--
			for i := 0; i < n; i++ {
				rowS[i] = f.Sub(rowS[i], am[i*n+col])
			}
		}
	}
}

// Recover reconstructs per A = Σ_{i=0}^{2^{n/2}-1} P(i) with the signed
// CRT.
func (p *Problem) Recover(proof *core.Proof) (*big.Int, error) {
	v, err := crt.ReconstructSigned(proof.SumRanges(0, 0, uint64(1)<<uint(p.half)), proof.Primes)
	if err != nil {
		return nil, fmt.Errorf("permanent: %w", err)
	}
	return v, nil
}

// Ryser computes the permanent exactly with Ryser's O(2^n·n) formula and
// Gray-code updates — the sequential baseline.
func Ryser(a [][]int64) *big.Int {
	n := len(a)
	total := new(big.Int)
	rowSums := make([]*big.Int, n)
	for i := range rowSums {
		rowSums[i] = new(big.Int)
	}
	gray := uint64(0)
	ones := 0
	term := new(big.Int)
	for iter := uint64(1); iter < 1<<uint(n); iter++ {
		bit := bits.TrailingZeros64(iter)
		mask := uint64(1) << uint(bit)
		if gray&mask == 0 {
			gray |= mask
			ones++
			for i := 0; i < n; i++ {
				rowSums[i].Add(rowSums[i], big.NewInt(a[i][bit]))
			}
		} else {
			gray &^= mask
			ones--
			for i := 0; i < n; i++ {
				rowSums[i].Sub(rowSums[i], big.NewInt(a[i][bit]))
			}
		}
		term.SetInt64(1)
		for i := 0; i < n; i++ {
			term.Mul(term, rowSums[i])
			if term.Sign() == 0 {
				break
			}
		}
		if (n-ones)%2 == 1 {
			total.Sub(total, term)
		} else {
			total.Add(total, term)
		}
	}
	return total
}

// Naive computes the permanent by brute-force permutation expansion —
// O(n!), cross-check for tiny matrices.
func Naive(a [][]int64) *big.Int {
	n := len(a)
	total := new(big.Int)
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int, prod *big.Int)
	rec = func(i int, prod *big.Int) {
		if prod.Sign() == 0 {
			// Zero products cannot revive; still must count remaining
			// permutations as zero contribution — just stop.
			return
		}
		if i == n {
			total.Add(total, prod)
			return
		}
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			perm[i] = j
			rec(i+1, new(big.Int).Mul(prod, big.NewInt(a[i][j])))
			used[j] = false
		}
	}
	rec(0, big.NewInt(1))
	return total
}
