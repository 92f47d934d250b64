package tensor

import (
	"math/rand"
	"testing"

	"camelot/internal/ff"
	"camelot/internal/matrix"
)

var testField = ff.Must(1000003)

func TestTrivialBaseIdentity(t *testing.T) {
	for _, n0 := range []int{1, 2, 3} {
		dc := Trivial(n0)
		if dc.N() != n0 || dc.R() != n0*n0*n0 {
			t.Fatalf("Trivial(%d): N=%d R=%d", n0, dc.N(), dc.R())
		}
		rng := rand.New(rand.NewSource(int64(n0)))
		u := matrix.Rand(testField, n0, n0, rng)
		v := matrix.Rand(testField, n0, n0, rng)
		w := matrix.Rand(testField, n0, n0, rng)
		if err := dc.Verify(testField, u, v, w); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStrassenBaseIdentity(t *testing.T) {
	dc := Strassen()
	if dc.N() != 2 || dc.R() != 7 {
		t.Fatalf("Strassen: N=%d R=%d", dc.N(), dc.R())
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		u := matrix.Rand(testField, 2, 2, rng)
		v := matrix.Rand(testField, 2, 2, rng)
		w := matrix.Rand(testField, 2, 2, rng)
		if err := dc.Verify(testField, u, v, w); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestKroneckerPowers(t *testing.T) {
	tests := []struct {
		name string
		dc   Decomposition
	}{
		{"trivial2^2", Trivial(2).Pow(2)},
		{"strassen^2", Strassen().Pow(2)},
		{"strassen^3", Strassen().Pow(3)},
		{"trivial3^2", Trivial(3).Pow(2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := tt.dc.N()
			rng := rand.New(rand.NewSource(7))
			u := matrix.Rand(testField, n, n, rng)
			v := matrix.Rand(testField, n, n, rng)
			w := matrix.Rand(testField, n, n, rng)
			if err := tt.dc.Verify(testField, u, v, w); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestForSize(t *testing.T) {
	dc, size := Strassen().ForSize(5)
	if size != 8 || dc.T != 3 {
		t.Fatalf("ForSize(5) = (T=%d, size=%d), want (3, 8)", dc.T, size)
	}
	dc, size = Trivial(3).ForSize(3)
	if size != 3 || dc.T != 1 {
		t.Fatalf("ForSize(3) = (T=%d, size=%d)", dc.T, size)
	}
	// n=1 still yields a usable base.
	_, size = Strassen().ForSize(1)
	if size != 2 {
		t.Fatalf("ForSize(1) size = %d", size)
	}
}

func TestCoeffMatrixAtPointMatchesGrid(t *testing.T) {
	// At grid points x0 = r+1, the interpolated coefficient matrices must
	// equal the exact term matrices (paper eq. (14)).
	for _, dc := range []Decomposition{Strassen().Pow(2), Trivial(2).Pow(2)} {
		for r := 0; r < dc.R(); r += 5 {
			x0 := uint64(r + 1)
			if got, want := dc.AlphaMatrixAtPoint(testField, x0), dc.AlphaMatrixAt(testField, r); !got.Equal(want) {
				t.Fatalf("alpha at grid point r=%d differs", r)
			}
			if got, want := dc.BetaMatrixAtPoint(testField, x0), dc.BetaMatrixAt(testField, r); !got.Equal(want) {
				t.Fatalf("beta at grid point r=%d differs", r)
			}
			if got, want := dc.GammaMatrixAtPoint(testField, x0), dc.GammaMatrixAt(testField, r); !got.Equal(want) {
				t.Fatalf("gamma at grid point r=%d differs", r)
			}
		}
	}
}

func TestCoeffPolynomialDegree(t *testing.T) {
	// The interpolated α_de(x) has degree <= R-1, so evaluating at R
	// distinct off-grid points and re-interpolating must reproduce the
	// grid values. Spot-check one (d, e) cell via direct Lagrange logic:
	// Σ_r α_de(r) Λ_r(x0) computed two ways.
	dc := Strassen().Pow(2)
	f := testField
	x0 := uint64(9999)
	got := dc.AlphaMatrixAtPoint(f, x0)
	lam := f.LagrangeAtOneBased(dc.R(), x0)
	for d := 0; d < dc.N(); d++ {
		for e := 0; e < dc.N(); e++ {
			want := uint64(0)
			for r := 0; r < dc.R(); r++ {
				want = f.Add(want, f.Mul(dc.AlphaMatrixAt(f, r).At(d, e), lam[r]))
			}
			if got.At(d, e) != want {
				t.Fatalf("alpha(%d,%d)(x0) = %d, want %d", d, e, got.At(d, e), want)
			}
		}
	}
}

func TestPairIndexRoundTrip(t *testing.T) {
	// pairOf inverts PairIndex: the (row, col) pair at interleaved index idx.
	pairOf := func(dc Decomposition, idx int) (row, col int) {
		for j, scale := 0, 1; j < dc.T; j, scale = j+1, scale*dc.N0 {
			d := idx % (dc.N0 * dc.N0)
			row += d / dc.N0 * scale
			col += d % dc.N0 * scale
			idx /= dc.N0 * dc.N0
		}
		return row, col
	}
	for _, dc := range []Decomposition{Strassen().Pow(3), Trivial(3).Pow(2), Strassen().Pow(1)} {
		seen := make(map[int]bool)
		for row := 0; row < dc.N(); row++ {
			for col := 0; col < dc.N(); col++ {
				idx := dc.PairIndex(row, col)
				if idx < 0 || idx >= dc.N()*dc.N() {
					t.Fatalf("N0=%d T=%d: PairIndex(%d,%d) = %d out of range", dc.N0, dc.T, row, col, idx)
				}
				if seen[idx] {
					t.Fatalf("N0=%d T=%d: PairIndex collision at (%d,%d)", dc.N0, dc.T, row, col)
				}
				seen[idx] = true
				if r, c := pairOf(dc, idx); r != row || c != col {
					t.Fatalf("N0=%d T=%d: pairOf(PairIndex(%d,%d)) = (%d,%d)", dc.N0, dc.T, row, col, r, c)
				}
				// Pair digit j is row_j·N0 + col_j, most significant first.
				want := 0
				for j := dc.T - 1; j >= 0; j-- {
					rd, cd := row/ipow(dc.N0, j)%dc.N0, col/ipow(dc.N0, j)%dc.N0
					want = want*dc.N0*dc.N0 + rd*dc.N0 + cd
				}
				if idx != want {
					t.Fatalf("N0=%d T=%d: PairIndex(%d,%d) = %d, want %d", dc.N0, dc.T, row, col, idx, want)
				}
			}
		}
		// The low c pair digits are the in-block place: row and col mod N0^c.
		c, b := dc.T-1, ipow(dc.N0, dc.T-1)
		for idx := 0; idx < dc.N()*dc.N(); idx++ {
			row, col := pairOf(dc, idx)
			if r, cc := pairOf(dc, idx%(b*b)); r != row%b || cc != col%b {
				t.Fatalf("N0=%d T=%d c=%d: block place of %d is (%d,%d), want (%d,%d)", dc.N0, dc.T, c, idx, r, cc, row%b, col%b)
			}
		}
	}
}

func TestPairIndexAllocatesNothing(t *testing.T) {
	dc := Strassen().Pow(7)
	row, col := 0, 0
	if n := testing.AllocsPerRun(100, func() {
		row, col = dc.PairIndex(row+1, col+3)%dc.N(), row
	}); n != 0 {
		t.Fatalf("PairIndex allocates %v times per call, want 0", n)
	}
}

func TestSparseBasesAreTransposes(t *testing.T) {
	dc := Strassen()
	a, _, _ := dc.SparseBases(testField)
	for r := 0; r < dc.R0; r++ {
		for row := 0; row < dc.N0*dc.N0; row++ {
			if a[r*dc.N0*dc.N0+row] != testField.Reduce(dc.Alpha[row*dc.R0+r]) {
				t.Fatal("alpha sparse base is not the transpose")
			}
		}
	}
}

func TestPowPanicsOnPower(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Strassen().Pow(2).Pow(2)
}

func TestPointEvaluatorMatchesAtPoint(t *testing.T) {
	f := ff.Must(1048583)
	for _, dc := range []Decomposition{Strassen().Pow(2), Trivial(2).Pow(2), Strassen().Pow(3)} {
		pe := dc.NewPointEvaluator(f)
		// On the grid, a run that leaves it, and a lone far point.
		r := uint64(dc.R())
		xs := []uint64{0, 1, 5, r, r + 1, r + 2, r + 3, 987654}
		err := pe.Sweep(xs, func(p int, alpha, beta, gamma *matrix.Matrix) error {
			x0 := xs[p]
			if !alpha.Equal(dc.AlphaMatrixAtPoint(f, x0)) ||
				!beta.Equal(dc.BetaMatrixAtPoint(f, x0)) ||
				!gamma.Equal(dc.GammaMatrixAtPoint(f, x0)) {
				t.Fatalf("N0=%d R0=%d T=%d x0=%d: PointEvaluator disagrees with per-call path",
					dc.N0, dc.R0, dc.T, x0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
