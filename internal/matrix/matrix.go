// Package matrix implements dense matrices over a prime field Z_q with
// the multiplication kernels the Camelot clique/triangle/Tutte algorithms
// depend on: classical ikj multiplication, one kernel for every modulus,
// and Strassen's recursion above a cutoff (the practical stand-in for
// "fast matrix multiplication" with ω = log2 7). Everything is
// deterministic and allocation-conscious: the (6,2)-linear-form evaluator
// of paper §4.2 relies on products staying in O(N²) space.
package matrix

import (
	"fmt"
	"math/rand"

	"camelot/internal/ff"
)

// strassenCutoff is the dimension above which Strassen recursion pays for
// itself (classical kernel below).
const strassenCutoff = 128

// Matrix is a rows×cols matrix over Z_q in row-major order.
type Matrix struct {
	R, C int
	F    ff.Field
	A    []uint64 // len R*C, canonical residues
}

// New returns a zero rows×cols matrix over f.
func New(f ff.Field, rows, cols int) *Matrix {
	return &Matrix{R: rows, C: cols, F: f, A: make([]uint64, rows*cols)}
}

// FromSlice wraps row-major data (reduced mod q) into a matrix.
func FromSlice(f ff.Field, rows, cols int, data []uint64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("matrix: %d entries for %dx%d", len(data), rows, cols)
	}
	m := New(f, rows, cols)
	for i, v := range data {
		m.A[i] = v % f.Q
	}
	return m, nil
}

// Rand returns a matrix with uniform entries, for tests and benches.
func Rand(f ff.Field, rows, cols int, rng *rand.Rand) *Matrix {
	m := New(f, rows, cols)
	for i := range m.A {
		m.A[i] = rng.Uint64() % f.Q
	}
	return m
}

// At returns entry (i, j).
func (m *Matrix) At(i, j int) uint64 { return m.A[i*m.C+j] }

// Set assigns entry (i, j), reducing mod q.
func (m *Matrix) Set(i, j int, v uint64) { m.A[i*m.C+j] = v % m.F.Q }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.F, m.R, m.C)
	copy(out.A, m.A)
	return out
}

// Equal reports entry-wise equality.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.R != o.R || m.C != o.C {
		return false
	}
	for i := range m.A {
		if m.A[i] != o.A[i] {
			return false
		}
	}
	return true
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.F, m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.A[j*m.R+i] = m.A[i*m.C+j]
		}
	}
	return out
}

// Add returns m + o.
func (m *Matrix) Add(o *Matrix) *Matrix {
	m.mustSameShape(o)
	out := New(m.F, m.R, m.C)
	for i := range m.A {
		out.A[i] = m.F.Add(m.A[i], o.A[i])
	}
	return out
}

// Sub returns m - o.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	m.mustSameShape(o)
	out := New(m.F, m.R, m.C)
	for i := range m.A {
		out.A[i] = m.F.Sub(m.A[i], o.A[i])
	}
	return out
}

// Hadamard returns the entry-wise product m ∘ o.
func (m *Matrix) Hadamard(o *Matrix) *Matrix {
	m.mustSameShape(o)
	k := m.F.Kernel()
	out := New(m.F, m.R, m.C)
	for i := range m.A {
		out.A[i] = ff.MulK(m.A[i], o.A[i], k)
	}
	return out
}

// DotAll returns Σ_ij m[i][j]·o[i][j] — the final contraction of the
// Nešetřil–Poljak and new-circuit designs.
func (m *Matrix) DotAll(o *Matrix) uint64 {
	m.mustSameShape(o)
	k := m.F.Kernel()
	acc := uint64(0)
	for i := range m.A {
		acc = m.F.Add(acc, ff.MulK(m.A[i], o.A[i], k))
	}
	return acc
}

// Trace returns Σ_i m[i][i].
func (m *Matrix) Trace() uint64 {
	if m.R != m.C {
		panic("matrix: trace of non-square matrix")
	}
	acc := uint64(0)
	for i := 0; i < m.R; i++ {
		acc = m.F.Add(acc, m.At(i, i))
	}
	return acc
}

func (m *Matrix) mustSameShape(o *Matrix) {
	if m.R != o.R || m.C != o.C || m.F.Q != o.F.Q {
		panic(fmt.Sprintf("matrix: shape/field mismatch %dx%d/%d vs %dx%d/%d",
			m.R, m.C, m.F.Q, o.R, o.C, o.F.Q))
	}
}

// Mul returns m·o, choosing Strassen for large square-ish inputs and the
// blocked classical kernel otherwise.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.C != o.R {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.R, m.C, o.R, o.C))
	}
	if m.R >= strassenCutoff && m.C >= strassenCutoff && o.C >= strassenCutoff {
		return m.mulStrassen(o)
	}
	return m.mulClassic(o)
}

// mulClassic is an ikj-ordered kernel: one Shoup row per entry of m,
// against the entry's ShoupOf companion, zero entries skipped.
func (m *Matrix) mulClassic(o *Matrix) *Matrix {
	out := New(m.F, m.R, o.C)
	q := m.F.Q
	for i := 0; i < m.R; i++ {
		outRow := out.A[i*o.C : (i+1)*o.C]
		for k, a := range m.A[i*m.C : (i+1)*m.C] {
			if a != 0 {
				ff.MulAddVecShoup(outRow, o.A[k*o.C:], a, ff.ShoupOf(a, q), q)
			}
		}
	}
	return out
}

// mulStrassen pads to even dimensions and recurses with seven products.
func (m *Matrix) mulStrassen(o *Matrix) *Matrix {
	n := m.R
	if m.C > n {
		n = m.C
	}
	if o.C > n {
		n = o.C
	}
	if n%2 == 1 {
		n++
	}
	a := m.padTo(n, n)
	b := o.padTo(n, n)
	c := strassenRec(a, b)
	return c.cropTo(m.R, o.C)
}

func (m *Matrix) padTo(r, c int) *Matrix {
	if m.R == r && m.C == c {
		return m
	}
	out := New(m.F, r, c)
	for i := 0; i < m.R; i++ {
		copy(out.A[i*c:i*c+m.C], m.A[i*m.C:(i+1)*m.C])
	}
	return out
}

func (m *Matrix) cropTo(r, c int) *Matrix {
	if m.R == r && m.C == c {
		return m
	}
	out := New(m.F, r, c)
	for i := 0; i < r; i++ {
		copy(out.A[i*c:(i+1)*c], m.A[i*m.C:i*m.C+c])
	}
	return out
}

func (m *Matrix) quadrants() (a11, a12, a21, a22 *Matrix) {
	h := m.R / 2
	w := m.C / 2
	get := func(r0, c0 int) *Matrix {
		q := New(m.F, h, w)
		for i := 0; i < h; i++ {
			copy(q.A[i*w:(i+1)*w], m.A[(r0+i)*m.C+c0:(r0+i)*m.C+c0+w])
		}
		return q
	}
	return get(0, 0), get(0, w), get(h, 0), get(h, w)
}

func assemble(c11, c12, c21, c22 *Matrix) *Matrix {
	h, w := c11.R, c11.C
	out := New(c11.F, 2*h, 2*w)
	for i := 0; i < h; i++ {
		copy(out.A[i*2*w:i*2*w+w], c11.A[i*w:(i+1)*w])
		copy(out.A[i*2*w+w:(i+1)*2*w], c12.A[i*w:(i+1)*w])
		copy(out.A[(h+i)*2*w:(h+i)*2*w+w], c21.A[i*w:(i+1)*w])
		copy(out.A[(h+i)*2*w+w:(h+i+1)*2*w], c22.A[i*w:(i+1)*w])
	}
	return out
}

func strassenRec(a, b *Matrix) *Matrix {
	if a.R <= strassenCutoff || a.R%2 == 1 {
		return a.mulClassic(b)
	}
	a11, a12, a21, a22 := a.quadrants()
	b11, b12, b21, b22 := b.quadrants()
	m1 := strassenRec(a11.Add(a22), b11.Add(b22))
	m2 := strassenRec(a21.Add(a22), b11)
	m3 := strassenRec(a11, b12.Sub(b22))
	m4 := strassenRec(a22, b21.Sub(b11))
	m5 := strassenRec(a11.Add(a12), b22)
	m6 := strassenRec(a21.Sub(a11), b11.Add(b12))
	m7 := strassenRec(a12.Sub(a22), b21.Add(b22))
	c11 := m1.Add(m4).Sub(m5).Add(m7)
	c12 := m3.Add(m5)
	c21 := m2.Add(m4)
	c22 := m1.Sub(m2).Add(m3).Add(m6)
	return assemble(c11, c12, c21, c22)
}
