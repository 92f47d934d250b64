// Package cliques implements the paper's main technical results: the
// (6,2)-linear form of §4 with its three evaluation circuits (direct,
// Nešetřil–Poljak, and the new space-efficient parallel design of
// Theorem 13), the proof polynomial of §5.2 with the fast evaluation
// algorithm of §5.3, and the k-clique counting reduction of §5.1 packaged
// as a core.Problem (Theorems 1 and 2).
package cliques

import (
	"fmt"
	"runtime"
	"sync"

	"camelot/internal/ff"
	"camelot/internal/matrix"
	"camelot/internal/tensor"
)

// Form is the (6,2)-linear form of paper eq. (9), generalized (per the
// paper's footnote 17) to 15 distinct N×N matrices, one per index pair
// 1 <= s < t <= 6:
//
//	X = Σ_{x_1..x_6} Π_{s<t} M^{(s,t)}[x_s][x_t].
//
// For clique counting all 15 matrices are the same χ.
type Form struct {
	n int
	f ff.Field
	// m[s][t] for 0-based s < t.
	m [6][6]*matrix.Matrix
}

// NewForm builds a form over f from the 15 matrices. get(s, t) must
// return the N×N matrix for the (1-based) pair s < t.
func NewForm(f ff.Field, n int, get func(s, t int) *matrix.Matrix) (*Form, error) {
	fm := &Form{n: n, f: f}
	for s := 0; s < 6; s++ {
		for t := s + 1; t < 6; t++ {
			m := get(s+1, t+1)
			if m == nil || m.R != n || m.C != n {
				return nil, fmt.Errorf("cliques: matrix (%d,%d) missing or not %dx%d", s+1, t+1, n, n)
			}
			fm.m[s][t] = m
		}
	}
	return fm, nil
}

// NewUniformForm builds the form with a single matrix χ in all 15
// positions — the clique-counting case.
func NewUniformForm(f ff.Field, chi *matrix.Matrix) (*Form, error) {
	if chi.R != chi.C {
		return nil, fmt.Errorf("cliques: χ must be square, got %dx%d", chi.R, chi.C)
	}
	return NewForm(f, chi.R, func(_, _ int) *matrix.Matrix { return chi })
}

// at returns M^{(s,t)} for 0-based s < t.
func (fm *Form) at(s, t int) *matrix.Matrix { return fm.m[s][t] }

// N returns the matrix dimension.
func (fm *Form) N() int { return fm.n }

// EvalDirect computes X by six nested loops: O(N^6) time, O(1) extra
// space. The correctness reference for everything else.
func (fm *Form) EvalDirect() uint64 {
	f := fm.f
	n := fm.n
	total := uint64(0)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			vab := fm.at(0, 1).At(a, b)
			if vab == 0 {
				continue
			}
			for c := 0; c < n; c++ {
				vabc := f.Mul(vab, f.Mul(fm.at(0, 2).At(a, c), fm.at(1, 2).At(b, c)))
				if vabc == 0 {
					continue
				}
				for d := 0; d < n; d++ {
					vd := f.Mul(fm.at(0, 3).At(a, d), f.Mul(fm.at(1, 3).At(b, d), fm.at(2, 3).At(c, d)))
					if vd == 0 {
						continue
					}
					vabcd := f.Mul(vabc, vd)
					for e := 0; e < n; e++ {
						ve := f.Mul(f.Mul(fm.at(0, 4).At(a, e), fm.at(1, 4).At(b, e)),
							f.Mul(fm.at(2, 4).At(c, e), fm.at(3, 4).At(d, e)))
						if ve == 0 {
							continue
						}
						vabcde := f.Mul(vabcd, ve)
						for x := 0; x < n; x++ {
							vx := f.Mul(f.Mul(fm.at(0, 5).At(a, x), fm.at(1, 5).At(b, x)),
								f.Mul(fm.at(2, 5).At(c, x), f.Mul(fm.at(3, 5).At(d, x), fm.at(4, 5).At(e, x))))
							total = f.Add(total, f.Mul(vabcde, vx))
						}
					}
				}
			}
		}
	}
	return total
}

// EvalNesetrilPoljak computes X with the classic §4.1 design: three
// N²×N² matrices U, S, T, one fast product V = S·Tᵀ, and a dot with U.
// O(N^{2ω}) time but O(N⁴) space — the baseline Theorem 13 improves on.
func (fm *Form) EvalNesetrilPoljak() uint64 {
	f := fm.f
	n := fm.n
	n2 := n * n
	u := matrix.New(f, n2, n2)
	s := matrix.New(f, n2, n2)
	tt := matrix.New(f, n2, n2)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			row := a*n + b
			for c := 0; c < n; c++ {
				for d := 0; d < n; d++ {
					col := c*n + d
					// U_{ab,cd} = M12_ab M13_ac M14_ad M23_bc M24_bd
					v := f.Mul(fm.at(0, 1).At(a, b), fm.at(0, 2).At(a, c))
					v = f.Mul(v, fm.at(0, 3).At(a, d))
					v = f.Mul(v, fm.at(1, 2).At(b, c))
					v = f.Mul(v, fm.at(1, 3).At(b, d))
					u.Set(row, col, v)
					// S_{ab,ef} = M15_ae M16_af M25_be M26_bf M56_ef
					e, x := c, d // reuse loop vars as (e, f)
					v = f.Mul(fm.at(0, 4).At(a, e), fm.at(0, 5).At(a, x))
					v = f.Mul(v, fm.at(1, 4).At(b, e))
					v = f.Mul(v, fm.at(1, 5).At(b, x))
					v = f.Mul(v, fm.at(4, 5).At(e, x))
					s.Set(row, col, v)
					// T_{cd,ef} = M34_cd M35_ce M36_cf M45_de M46_df
					cc, dd := a, b // row is (c,d) here
					v = f.Mul(fm.at(2, 3).At(cc, dd), fm.at(2, 4).At(cc, e))
					v = f.Mul(v, fm.at(2, 5).At(cc, x))
					v = f.Mul(v, fm.at(3, 4).At(dd, e))
					v = f.Mul(v, fm.at(3, 5).At(dd, x))
					tt.Set(row, col, v)
				}
			}
		}
	}
	v := s.Mul(tt.Transpose())
	return u.DotAll(v)
}

// TermAt computes the single term P(r) of the new design (paper eqs.
// (11)–(12)) for the 0-based term index r of the decomposition: a
// constant number of N×N matrix products in O(N²) space.
func (fm *Form) TermAt(dc tensor.Decomposition, r int) (uint64, error) {
	alpha := dc.AlphaMatrixAt(fm.f, r)
	beta := dc.BetaMatrixAt(fm.f, r)
	gamma := dc.GammaMatrixAt(fm.f, r)
	return fm.Combine(alpha, beta, gamma)
}

// Combine assembles P from coefficient matrices (either exact term
// matrices for P(r) or interpolated ones for P(x0)): the (11)–(12)
// pipeline expressed as Hadamard products and N×N matrix products.
func (fm *Form) Combine(alpha, beta, gamma *matrix.Matrix) (uint64, error) {
	n := fm.n
	if alpha.R != n || beta.R != n || gamma.R != n {
		return 0, fmt.Errorf("cliques: coefficient matrices are %dx%d, want %dx%d", alpha.R, alpha.C, n, n)
	}
	// H_ad = Σ_{e'} α_{de'} M15_{ae'} M45_{de'}      => H = M15 · (α ∘ M45)ᵀ
	h := fm.at(0, 4).Mul(alpha.Hadamard(fm.at(3, 4)).Transpose())
	// A_ab = Σ_d M14_ad M24_bd H_ad                  => A = (M14 ∘ H) · M24ᵀ
	a := fm.at(0, 3).Hadamard(h).Mul(fm.at(1, 3).Transpose())
	// K_be = Σ_{f'} β_{ef'} M26_{bf'} M56_{ef'}      => K = M26 · (β ∘ M56)ᵀ
	kk := fm.at(1, 5).Mul(beta.Hadamard(fm.at(4, 5)).Transpose())
	// B_bc = Σ_e M25_be M35_ce K_be                  => B = (M25 ∘ K) · M35ᵀ
	b := fm.at(1, 4).Hadamard(kk).Mul(fm.at(2, 4).Transpose())
	// L_cf = Σ_{d'} γ_{d'f} M34_{cd'} M46_{d'f}      => L = M34 · (γ ∘ M46)
	l := fm.at(2, 3).Mul(gamma.Hadamard(fm.at(3, 5)))
	// C_ac = Σ_f M16_af M36_cf L_cf                  => C = M16 · (M36 ∘ L)ᵀ
	c := fm.at(0, 5).Mul(fm.at(2, 5).Hadamard(l).Transpose())
	// Q_ab = Σ_c M13_ac M23_bc B_bc C_ac             => Q = (M13 ∘ C) · (M23 ∘ B)ᵀ
	q := fm.at(0, 2).Hadamard(c).Mul(fm.at(1, 2).Hadamard(b).Transpose())
	// P = Σ_ab M12_ab A_ab Q_ab
	return fm.at(0, 1).Hadamard(a).DotAll(q), nil
}

// EvalParts computes X = Σ_{r=1}^{R} P(r) (Theorem 13) with the new
// circuit, distributing terms over min(parallelism, R) goroutines — the
// Theorem 2 execution mode: per-worker space O(N²), embarrassingly
// parallel over r.
func (fm *Form) EvalParts(dc tensor.Decomposition, parallelism int) (uint64, error) {
	if dc.N() != fm.n {
		return 0, fmt.Errorf("cliques: decomposition covers N=%d, form has N=%d", dc.N(), fm.n)
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	r := dc.R()
	if parallelism > r {
		parallelism = r
	}
	partials := make([]uint64, parallelism)
	errs := make([]error, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := uint64(0)
			for term := w; term < r; term += parallelism {
				v, err := fm.TermAt(dc, term)
				if err != nil {
					errs[w] = err
					return
				}
				acc = fm.f.Add(acc, v)
			}
			partials[w] = acc
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	total := uint64(0)
	for _, v := range partials {
		total = fm.f.Add(total, v)
	}
	return total, nil
}

// ProofEval evaluates the proof polynomial P(x0) of paper §5.2–§5.3: the
// tensor coefficient polynomials are evaluated at x0 via Yates in O(R)
// operations, then combined with the same O(N^ω)-work, O(N²)-space
// pipeline as a single term. deg P <= 3(R-1).
func (fm *Form) ProofEval(dc tensor.Decomposition, x0 uint64) (uint64, error) {
	if dc.N() != fm.n {
		return 0, fmt.Errorf("cliques: decomposition covers N=%d, form has N=%d", dc.N(), fm.n)
	}
	alpha := dc.AlphaMatrixAtPoint(fm.f, x0)
	beta := dc.BetaMatrixAtPoint(fm.f, x0)
	gamma := dc.GammaMatrixAtPoint(fm.f, x0)
	return fm.Combine(alpha, beta, gamma)
}
