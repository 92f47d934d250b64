package tensor

// Batch point evaluation. AlphaMatrixAtPoint and friends rebuild the
// reduced base matrices, the Lagrange factorial tables, and the digit
// fan-out for every call — and each of the three families recomputes the
// same R-vector (Λ_1(x0), ..., Λ_R(x0)). A PointEvaluator hoists all of
// that per-prime setup so that evaluating the coefficient matrices over
// a whole block of points pays it once.

import (
	"camelot/internal/ff"
	"camelot/internal/matrix"
	"camelot/internal/yates"
)

// PointEvaluator evaluates the interpolated coefficient matrices
// [α(x0)], [β(x0)], [γ(x0)] at many points of one prime, sharing the
// reduced bases, the Lagrange denominator inverses, and the index
// fan-out table across points — and the Lagrange vector itself across
// the three families at each point. It is read-only after construction.
type PointEvaluator struct {
	dc                  Decomposition
	f                   ff.Field
	lag                 *ff.LagrangeEvaluator
	baseA, baseB, baseG []uint64
	idx                 []int // matrix cell (row*N+col) -> Yates output index
}

// NewPointEvaluator prepares the per-prime evaluation state.
func (dc Decomposition) NewPointEvaluator(f ff.Field) *PointEvaluator {
	n := dc.N()
	idx := make([]int, n*n)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			idx[row*n+col] = dc.PairIndex(row, col)
		}
	}
	return &PointEvaluator{
		dc:    dc,
		f:     f,
		lag:   f.NewLagrangeEvaluatorOneBased(dc.R()),
		baseA: dc.baseMod(f, kindAlpha),
		baseB: dc.baseMod(f, kindBeta),
		baseG: dc.baseMod(f, kindGamma),
		idx:   idx,
	}
}

// Sweep calls visit with the three coefficient matrices at every point
// of xs, in order: one Lagrange vector and three Yates pushes per point,
// and one field inversion per run of consecutive points
// (ff.LagrangeEvaluator.Sweep). It stops at the first error visit
// returns and returns it.
func (pe *PointEvaluator) Sweep(xs []uint64, visit func(p int, alpha, beta, gamma *matrix.Matrix) error) (err error) {
	pe.lag.Sweep(xs, func(p int, lam []uint64) {
		if err == nil {
			err = visit(p, pe.fanOut(pe.baseA, lam), pe.fanOut(pe.baseB, lam), pe.fanOut(pe.baseG, lam))
		}
	})
	return err
}

// fanOut pushes the Lagrange vector through one base's Kronecker power
// and scatters the result into matrix layout via the precomputed index
// table.
func (pe *PointEvaluator) fanOut(base, lam []uint64) *matrix.Matrix {
	dc := pe.dc
	y := yates.Transform(pe.f, base, dc.N0*dc.N0, dc.R0, dc.T, lam)
	n := dc.N()
	out := matrix.New(pe.f, n, n)
	for i, ix := range pe.idx {
		out.A[i] = y[ix]
	}
	return out
}
