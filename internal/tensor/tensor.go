// Package tensor represents trilinear decompositions of the matrix
// multiplication tensor ⟨n,n,n⟩, i.e. coefficient families
// α_de(r), β_ef(r), γ_df(r) satisfying paper eq. (10):
//
//	Σ_{d,e,f} u_de · v_ef · w_df
//	  = Σ_{r=1}^{R} (Σ_{d,e'} α_{de'}(r) u_{de'})
//	                (Σ_{e,f'} β_{ef'}(r) v_{ef'})
//	                (Σ_{d',f} γ_{d'f}(r) w_{d'f}).
//
// A Decomposition is a base triple of N0²×R0 integer matrices together
// with a Kronecker exponent T, representing the rank-R0^T decomposition
// of ⟨N0^T, N0^T, N0^T⟩ per paper eqs. (17)/(20). Two bases are provided:
// Trivial(n0) with R0 = n0³ (exponent ω = 3) and Strassen() with N0 = 2,
// R0 = 7 (ω = log2 7 ≈ 2.807) — the practical stand-ins for "fast matrix
// multiplication" that every Camelot construction is parametric in.
package tensor

import (
	"fmt"

	"camelot/internal/ff"
	"camelot/internal/matrix"
	"camelot/internal/yates"
)

// Decomposition is a Kronecker power of a base trilinear decomposition.
// Base matrices are N0²×R0 in row-major order with row index d*N0+e for
// Alpha, e*N0+f for Beta, and d*N0+f for Gamma; entries are small signed
// integers.
type Decomposition struct {
	N0, R0 int
	T      int // Kronecker exponent; the decomposition covers N = N0^T
	Alpha  []int64
	Beta   []int64
	Gamma  []int64
}

// Trivial returns the rank-n0³ decomposition of ⟨n0,n0,n0⟩: term
// r = (d̂,ê,f̂) has α_de(r) = [d=d̂][e=ê], β_ef(r) = [e=ê][f=f̂],
// γ_df(r) = [d=d̂][f=f̂].
func Trivial(n0 int) Decomposition {
	r0 := n0 * n0 * n0
	alpha := make([]int64, n0*n0*r0)
	beta := make([]int64, n0*n0*r0)
	gamma := make([]int64, n0*n0*r0)
	for dh := 0; dh < n0; dh++ {
		for eh := 0; eh < n0; eh++ {
			for fh := 0; fh < n0; fh++ {
				r := (dh*n0+eh)*n0 + fh
				alpha[(dh*n0+eh)*r0+r] = 1
				beta[(eh*n0+fh)*r0+r] = 1
				gamma[(dh*n0+fh)*r0+r] = 1
			}
		}
	}
	return Decomposition{N0: n0, R0: r0, T: 1, Alpha: alpha, Beta: beta, Gamma: gamma}
}

// Strassen returns the rank-7 decomposition of ⟨2,2,2⟩ derived from
// Strassen's algorithm: M1..M7 with
//
//	M1=(u11+u22)(v11+v22)  M2=(u21+u22)v11  M3=u11(v12−v22)
//	M4=u22(v21−v11)        M5=(u11+u12)v22  M6=(u21−u11)(v11+v12)
//	M7=(u12−u22)(v21+v22)
//
// and w-side coefficients read off the C-quadrant assembly.
func Strassen() Decomposition {
	// Index helpers: rows are (d*2+e) for alpha, (e*2+f) for beta,
	// (d*2+f) for gamma; 7 columns r = 0..6 for M1..M7.
	alpha := make([]int64, 4*7)
	beta := make([]int64, 4*7)
	gamma := make([]int64, 4*7)
	setA := func(d, e, r int, v int64) { alpha[(d*2+e)*7+r] = v }
	setB := func(e, f, r int, v int64) { beta[(e*2+f)*7+r] = v }
	setG := func(d, f, r int, v int64) { gamma[(d*2+f)*7+r] = v }
	// M1 = (u11+u22)(v11+v22); contributes to C11 and C22.
	setA(0, 0, 0, 1)
	setA(1, 1, 0, 1)
	setB(0, 0, 0, 1)
	setB(1, 1, 0, 1)
	setG(0, 0, 0, 1)
	setG(1, 1, 0, 1)
	// M2 = (u21+u22) v11; C21 += M2, C22 -= M2.
	setA(1, 0, 1, 1)
	setA(1, 1, 1, 1)
	setB(0, 0, 1, 1)
	setG(1, 0, 1, 1)
	setG(1, 1, 1, -1)
	// M3 = u11 (v12−v22); C12 += M3, C22 += M3.
	setA(0, 0, 2, 1)
	setB(0, 1, 2, 1)
	setB(1, 1, 2, -1)
	setG(0, 1, 2, 1)
	setG(1, 1, 2, 1)
	// M4 = u22 (v21−v11); C11 += M4, C21 += M4.
	setA(1, 1, 3, 1)
	setB(1, 0, 3, 1)
	setB(0, 0, 3, -1)
	setG(0, 0, 3, 1)
	setG(1, 0, 3, 1)
	// M5 = (u11+u12) v22; C11 -= M5, C12 += M5.
	setA(0, 0, 4, 1)
	setA(0, 1, 4, 1)
	setB(1, 1, 4, 1)
	setG(0, 0, 4, -1)
	setG(0, 1, 4, 1)
	// M6 = (u21−u11)(v11+v12); C22 += M6.
	setA(1, 0, 5, 1)
	setA(0, 0, 5, -1)
	setB(0, 0, 5, 1)
	setB(0, 1, 5, 1)
	setG(1, 1, 5, 1)
	// M7 = (u12−u22)(v21+v22); C11 += M7.
	setA(0, 1, 6, 1)
	setA(1, 1, 6, -1)
	setB(1, 0, 6, 1)
	setB(1, 1, 6, 1)
	setG(0, 0, 6, 1)
	return Decomposition{N0: 2, R0: 7, T: 1, Alpha: alpha, Beta: beta, Gamma: gamma}
}

// Pow returns the T-fold Kronecker power of the base decomposition,
// which decomposes ⟨N0^T, N0^T, N0^T⟩ with rank R0^T (paper eq. (17)).
// The base matrices are shared, not copied.
func (dc Decomposition) Pow(t int) Decomposition {
	if dc.T != 1 {
		panic("tensor: Pow of a non-base decomposition")
	}
	out := dc
	out.T = t
	return out
}

// ForSize returns the smallest power dc.Pow(t) with N0^t >= n, together
// with the covered size N0^t. Inputs are zero-padded up to it by callers.
func (dc Decomposition) ForSize(n int) (Decomposition, int) {
	t := 0
	size := 1
	for size < n {
		size *= dc.N0
		t++
	}
	if t == 0 {
		t = 1
		size = dc.N0
	}
	return dc.Pow(t), size
}

// N returns the matrix dimension N0^T covered by the decomposition.
func (dc Decomposition) N() int { return ipow(dc.N0, dc.T) }

// R returns the rank R0^T.
func (dc Decomposition) R() int { return ipow(dc.R0, dc.T) }

func ipow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// kind selects one of the three coefficient families.
type kind int

const (
	kindAlpha kind = iota + 1
	kindBeta
	kindGamma
)

func (dc Decomposition) base(which kind) []int64 {
	switch which {
	case kindAlpha:
		return dc.Alpha
	case kindBeta:
		return dc.Beta
	default:
		return dc.Gamma
	}
}

// baseMod returns the base matrix reduced into the field.
func (dc Decomposition) baseMod(f ff.Field, which kind) []uint64 {
	b := dc.base(which)
	out := make([]uint64, len(b))
	for i, v := range b {
		out[i] = f.Reduce(v)
	}
	return out
}

// coeffMatrixAt builds the N×N matrix of coefficients for a fixed term r
// (0-based, r in [0, R)): entry (row, col) = Π_j base[(row_j*N0+col_j)][r_j].
func (dc Decomposition) coeffMatrixAt(f ff.Field, which kind, r int) *matrix.Matrix {
	n := dc.N()
	b := dc.baseMod(f, which)
	// Digits of r, most significant first.
	rd := make([]int, dc.T)
	x := r
	for j := dc.T - 1; j >= 0; j-- {
		rd[j] = x % dc.R0
		x /= dc.R0
	}
	out := matrix.New(f, n, n)
	k := f.Kernel()
	rowDigits := make([]int, dc.T)
	colDigits := make([]int, dc.T)
	for row := 0; row < n; row++ {
		digitsOf(row, dc.N0, rowDigits)
		for col := 0; col < n; col++ {
			digitsOf(col, dc.N0, colDigits)
			v := uint64(1)
			for j := 0; j < dc.T; j++ {
				v = ff.MulK(v, b[(rowDigits[j]*dc.N0+colDigits[j])*dc.R0+rd[j]], k)
				if v == 0 {
					break
				}
			}
			out.Set(row, col, v)
		}
	}
	return out
}

// AlphaMatrixAt returns [α_de(r)] as an N×N matrix (rows d, cols e) for a
// 0-based term index r.
func (dc Decomposition) AlphaMatrixAt(f ff.Field, r int) *matrix.Matrix {
	return dc.coeffMatrixAt(f, kindAlpha, r)
}

// BetaMatrixAt returns [β_ef(r)] (rows e, cols f).
func (dc Decomposition) BetaMatrixAt(f ff.Field, r int) *matrix.Matrix {
	return dc.coeffMatrixAt(f, kindBeta, r)
}

// GammaMatrixAt returns [γ_df(r)] (rows d, cols f).
func (dc Decomposition) GammaMatrixAt(f ff.Field, r int) *matrix.Matrix {
	return dc.coeffMatrixAt(f, kindGamma, r)
}

// coeffMatrixAtPoint evaluates the Lagrange-interpolated coefficient
// polynomials (paper eq. (14), interpolation over the 1-based grid
// r = 1..R) at an arbitrary field point x0, for all N² index pairs at
// once: the R-vector (Λ_1(x0),...,Λ_R(x0)) is pushed through the
// Kronecker-power matrix with Yates's algorithm in O(R·T) operations
// (paper §5.3, eq. (18)).
func (dc Decomposition) coeffMatrixAtPoint(f ff.Field, which kind, x0 uint64) *matrix.Matrix {
	lam := f.LagrangeAtOneBased(dc.R(), x0)
	y := yates.Transform(f, dc.baseMod(f, which), dc.N0*dc.N0, dc.R0, dc.T, lam)
	// y is indexed by interleaved pair digits (row_j*N0+col_j); fan out
	// into the N×N matrix.
	n := dc.N()
	out := matrix.New(f, n, n)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			out.Set(row, col, y[dc.PairIndex(row, col)])
		}
	}
	return out
}

// AlphaMatrixAtPoint evaluates [α_de(x0)] for the interpolated polynomials.
func (dc Decomposition) AlphaMatrixAtPoint(f ff.Field, x0 uint64) *matrix.Matrix {
	return dc.coeffMatrixAtPoint(f, kindAlpha, x0)
}

// BetaMatrixAtPoint evaluates [β_ef(x0)].
func (dc Decomposition) BetaMatrixAtPoint(f ff.Field, x0 uint64) *matrix.Matrix {
	return dc.coeffMatrixAtPoint(f, kindBeta, x0)
}

// GammaMatrixAtPoint evaluates [γ_df(x0)].
func (dc Decomposition) GammaMatrixAtPoint(f ff.Field, x0 uint64) *matrix.Matrix {
	return dc.coeffMatrixAtPoint(f, kindGamma, x0)
}

// SparseBases returns the transposed base matrix of the requested family
// as the R0×N0² Yates base used by the split/sparse triangle algorithms
// (§6.2): there the roles flip, with the R-side as output ("t" rows) and
// the N²-side as sparse input ("s" columns).
func (dc Decomposition) SparseBases(f ff.Field) (alpha, beta, gamma []uint64) {
	tr := func(b []uint64) []uint64 {
		out := make([]uint64, len(b))
		for row := 0; row < dc.N0*dc.N0; row++ {
			for r := 0; r < dc.R0; r++ {
				out[r*dc.N0*dc.N0+row] = b[row*dc.R0+r]
			}
		}
		return out
	}
	return tr(dc.baseMod(f, kindAlpha)), tr(dc.baseMod(f, kindBeta)), tr(dc.baseMod(f, kindGamma))
}

// PairIndex maps a (row, col) pair of [N]×[N] to the interleaved-digit
// index in [N0²^T] used by Kronecker-power vectors (row-major per digit):
// pair digit j is row_j·N0 + col_j, most significant first.
func (dc Decomposition) PairIndex(row, col int) int {
	idx, scale := 0, 1
	for j := 0; j < dc.T; j++ {
		idx += (row%dc.N0*dc.N0 + col%dc.N0) * scale
		row /= dc.N0
		col /= dc.N0
		scale *= dc.N0 * dc.N0
	}
	return idx
}

// digitsOf writes the base-b digits of x into dst, most significant first.
func digitsOf(x, b int, dst []int) {
	for j := len(dst) - 1; j >= 0; j-- {
		dst[j] = x % b
		x /= b
	}
}

// Verify checks identity (10) for the decomposition over the given field
// on a specific triple (u, v, w) of N×N matrices, returning an error with
// both sides on mismatch. Tests use it with random triples; the clique
// and triangle packages use it in their own self-checks.
func (dc Decomposition) Verify(f ff.Field, u, v, w *matrix.Matrix) error {
	n := dc.N()
	if u.R != n || u.C != n || v.R != n || v.C != n || w.R != n || w.C != n {
		return fmt.Errorf("tensor: matrices must be %dx%d", n, n)
	}
	// Left side: Σ u_de v_ef w_df = Σ_{d,f} (U·V)_{df} w_df.
	lhs := u.Mul(v).DotAll(w)
	// Right side: Σ_r ⟨α(r),u⟩⟨β(r),v⟩⟨γ(r),w⟩.
	rhs := uint64(0)
	for r := 0; r < dc.R(); r++ {
		ua := dc.AlphaMatrixAt(f, r).DotAll(u)
		vb := dc.BetaMatrixAt(f, r).DotAll(v)
		wg := dc.GammaMatrixAt(f, r).DotAll(w)
		rhs = f.Add(rhs, f.Mul(f.Mul(ua, vb), wg))
	}
	if lhs != rhs {
		return fmt.Errorf("tensor: identity (10) fails: lhs=%d rhs=%d", lhs, rhs)
	}
	return nil
}
