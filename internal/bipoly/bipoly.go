// Package bipoly implements truncated bivariate polynomials in the
// weight-tracking indeterminates w_E, w_B of the paper's §7 proof
// template. Degrees are capped at (degE, degB) because the template only
// ever reads the coefficient of w_E^{|E|} w_B^{|B|}; higher monomials are
// discarded eagerly, keeping every node's algebra O(|E|·|B|) per value.
package bipoly

import (
	"fmt"

	"camelot/internal/ff"
)

// Ring fixes the coefficient field and the truncation degrees.
type Ring struct {
	F ff.Field
	// DegE and DegB are the maximum retained exponents of w_E and w_B.
	DegE, DegB int
}

// NewRing returns a truncated bivariate ring.
func NewRing(f ff.Field, degE, degB int) Ring {
	if degE < 0 || degB < 0 {
		panic(fmt.Sprintf("bipoly: negative truncation degrees (%d, %d)", degE, degB))
	}
	return Ring{F: f, DegE: degE, DegB: degB}
}

// Poly is a truncated polynomial; C[i*(DegB+1)+j] is the coefficient of
// w_E^i w_B^j. A nil C represents zero.
type Poly struct {
	C []uint64
}

// Zero returns the zero polynomial.
func (r Ring) Zero() Poly { return Poly{} }

// Monomial returns c·w_E^i w_B^j (zero if the monomial exceeds the
// truncation).
func (r Ring) Monomial(i, j int, c uint64) Poly {
	if i > r.DegE || j > r.DegB || c%r.F.Q == 0 {
		return Poly{}
	}
	p := r.alloc()
	p.C[i*(r.DegB+1)+j] = c % r.F.Q
	return p
}

func (r Ring) alloc() Poly {
	return Poly{C: make([]uint64, (r.DegE+1)*(r.DegB+1))}
}

// IsZero reports whether p is (representationally) zero.
func (p Poly) IsZero() bool {
	for _, c := range p.C {
		if c != 0 {
			return false
		}
	}
	return true
}

// Coeff returns the coefficient of w_E^i w_B^j.
func (r Ring) Coeff(p Poly, i, j int) uint64 {
	if p.C == nil || i > r.DegE || j > r.DegB {
		return 0
	}
	return p.C[i*(r.DegB+1)+j]
}

// Clone returns an independent copy.
func (r Ring) Clone(p Poly) Poly {
	if p.C == nil {
		return Poly{}
	}
	out := r.alloc()
	copy(out.C, p.C)
	return out
}

// Add returns a+b.
func (r Ring) Add(a, b Poly) Poly {
	if a.C == nil {
		return r.Clone(b)
	}
	if b.C == nil {
		return r.Clone(a)
	}
	out := r.alloc()
	for i := range out.C {
		out.C[i] = r.F.Add(a.C[i], b.C[i])
	}
	return out
}

// AddInPlace sets a += b, reusing a's storage when possible, and returns
// the result (a fresh allocation only when a was zero).
func (r Ring) AddInPlace(a, b Poly) Poly {
	if b.C == nil {
		return a
	}
	if a.C == nil {
		return r.Clone(b)
	}
	for i := range a.C {
		a.C[i] = r.F.Add(a.C[i], b.C[i])
	}
	return a
}

// Sub returns a-b.
func (r Ring) Sub(a, b Poly) Poly {
	if b.C == nil {
		return r.Clone(a)
	}
	out := r.alloc()
	if a.C != nil {
		copy(out.C, a.C)
	}
	for i := range out.C {
		out.C[i] = r.F.Sub(out.C[i], b.C[i])
	}
	return out
}

// Scale returns c·p.
func (r Ring) Scale(p Poly, c uint64) Poly {
	c %= r.F.Q
	if p.C == nil || c == 0 {
		return Poly{}
	}
	out := r.alloc()
	for i := range out.C {
		out.C[i] = r.F.Mul(p.C[i], c)
	}
	return out
}

// Mul returns a·b with truncation.
func (r Ring) Mul(a, b Poly) Poly {
	if a.C == nil || b.C == nil {
		return Poly{}
	}
	out := r.alloc()
	w := r.DegB + 1
	for i := 0; i <= r.DegE; i++ {
		for j := 0; j <= r.DegB; j++ {
			c := a.C[i*w+j]
			if c == 0 {
				continue
			}
			maxI := r.DegE - i
			maxJ := r.DegB - j
			for bi := 0; bi <= maxI; bi++ {
				bRow := b.C[bi*w:]
				oRow := out.C[(i+bi)*w+j:]
				for bj := 0; bj <= maxJ; bj++ {
					if bRow[bj] == 0 {
						continue
					}
					oRow[bj] = r.F.Add(oRow[bj], r.F.Mul(c, bRow[bj]))
				}
			}
		}
	}
	return out
}

// MulMonomial returns p · c·w_E^i w_B^j — the common template operation
// of attaching a set's weight, cheaper than a general Mul.
func (r Ring) MulMonomial(p Poly, i, j int, c uint64) Poly {
	c %= r.F.Q
	if p.C == nil || c == 0 || i > r.DegE || j > r.DegB {
		return Poly{}
	}
	out := r.alloc()
	w := r.DegB + 1
	for ai := 0; ai+i <= r.DegE; ai++ {
		for aj := 0; aj+j <= r.DegB; aj++ {
			v := p.C[ai*w+aj]
			if v != 0 {
				out.C[(ai+i)*w+aj+j] = r.F.Mul(v, c)
			}
		}
	}
	return out
}

// Equal reports coefficient-wise equality.
func (r Ring) Equal(a, b Poly) bool {
	for i := 0; i <= r.DegE; i++ {
		for j := 0; j <= r.DegB; j++ {
			if r.Coeff(a, i, j) != r.Coeff(b, i, j) {
				return false
			}
		}
	}
	return true
}
