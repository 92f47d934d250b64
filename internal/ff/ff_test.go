package ff

import (
	"testing"
	"testing/quick"
)

func TestNewRejectsComposites(t *testing.T) {
	tests := []struct {
		name string
		q    uint64
		ok   bool
	}{
		{"two", 2, true},
		{"small prime", 97, true},
		{"mersenne 61", (1 << 61) - 1, true},
		{"one", 1, false},
		{"zero", 0, false},
		{"even composite", 100, false},
		{"carmichael 561", 561, false},
		{"carmichael 1105", 1105, false},
		{"square", 25, false},
		{"too large", 1 << 63, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsModulus(tt.q); got != tt.ok {
				t.Fatalf("IsModulus(%d) = %v before New, want %v", tt.q, got, tt.ok)
			}
			_, err := New(tt.q)
			if (err == nil) != tt.ok {
				t.Fatalf("New(%d) error = %v, want ok=%v", tt.q, err, tt.ok)
			}
			if got := IsModulus(tt.q); got != tt.ok {
				t.Fatalf("IsModulus(%d) = %v after New, want %v", tt.q, got, tt.ok)
			}
		})
	}
	// IsModulus checks without memoizing: a prime it admits stays out
	// of the cache until New builds its field.
	if !IsModulus(999983) {
		t.Fatal("IsModulus refused the prime 999983")
	}
	if _, cached := fieldCache.Load(uint64(999983)); cached {
		t.Fatal("IsModulus cached a modulus")
	}
}

func TestIsPrimeAgainstSieve(t *testing.T) {
	const limit = 10000
	sieve := make([]bool, limit)
	for i := 2; i < limit; i++ {
		if !sieve[i] {
			for j := 2 * i; j < limit; j += i {
				sieve[j] = true
			}
		}
	}
	for n := uint64(0); n < limit; n++ {
		want := n >= 2 && !sieve[n]
		if got := IsPrime(n); got != want {
			t.Fatalf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestFieldOpsSmall(t *testing.T) {
	f := Must(17)
	if got := f.Add(16, 5); got != 4 {
		t.Errorf("Add(16,5) = %d, want 4", got)
	}
	if got := f.Sub(3, 5); got != 15 {
		t.Errorf("Sub(3,5) = %d, want 15", got)
	}
	if got := f.Mul(6, 6); got != 2 {
		t.Errorf("Mul(6,6) = %d, want 2", got)
	}
	if got := f.Neg(0); got != 0 {
		t.Errorf("Neg(0) = %d, want 0", got)
	}
	if got := f.Exp(3, 16); got != 1 {
		t.Errorf("Fermat: 3^16 mod 17 = %d, want 1", got)
	}
	if got := f.Reduce(-1); got != 16 {
		t.Errorf("Reduce(-1) = %d, want 16", got)
	}
	if got := f.Reduce(-34); got != 0 {
		t.Errorf("Reduce(-34) = %d, want 0", got)
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	f := Must(2147483647) // 2^31 - 1
	cfg := &quick.Config{MaxCount: 300}
	assoc := func(a, b, c uint64) bool {
		a, b, c = a%f.Q, b%f.Q, c%f.Q
		return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
	}
	distrib := func(a, b, c uint64) bool {
		a, b, c = a%f.Q, b%f.Q, c%f.Q
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}
	subInverse := func(a, b uint64) bool {
		a, b = a%f.Q, b%f.Q
		return f.Add(f.Sub(a, b), b) == a
	}
	for name, prop := range map[string]any{
		"assoc": assoc, "distrib": distrib, "sub": subInverse,
	} {
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBatchInvEmpty(t *testing.T) {
	f := Must(17)
	f.BatchInv(nil) // must not panic
}

func TestNextPrime(t *testing.T) {
	tests := []struct{ in, want uint64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {90, 97}, {1000000, 1000003},
	}
	for _, tt := range tests {
		if got := NextPrime(tt.in); got != tt.want {
			t.Errorf("NextPrime(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestNTTPrime(t *testing.T) {
	for _, order := range []int{1, 2, 16, 1024, 1 << 15} {
		q, root, err := NTTPrime(1<<20, order)
		if err != nil {
			t.Fatalf("NTTPrime(order=%d): %v", order, err)
		}
		if !IsPrime(q) || q < 1<<20 {
			t.Fatalf("NTTPrime(order=%d) = %d: not a prime >= 2^20", order, q)
		}
		k := 1
		for k < order {
			k <<= 1
		}
		if (q-1)%uint64(k) != 0 {
			t.Fatalf("q-1 = %d not divisible by %d", q-1, k)
		}
		f := Must(q)
		// root must have exact order k.
		if f.Exp(root, uint64(k)) != 1 {
			t.Fatalf("root^k != 1")
		}
		if k > 1 && f.Exp(root, uint64(k/2)) == 1 {
			t.Fatalf("root order divides k/2: not primitive")
		}
	}
}

// TestNTTPrimeFromACandidate: a min that is itself an NTT prime of the
// order comes back unchanged, and is the smallest answer for any smaller
// order; the whole range is scanned against IsPrime at small sizes.
func TestNTTPrimeFromACandidate(t *testing.T) {
	for _, order := range []int{1, 2, 4, 64, 1 << 11} {
		for min := uint64(0); min < 1<<13; min += 1 + min/8 {
			q, _, err := NTTPrime(min, order)
			if err != nil {
				t.Fatalf("NTTPrime(%d, %d): %v", min, order, err)
			}
			for c := max(min, uint64(order)+1); c < q; c++ {
				if (c-1)%uint64(order) == 0 && IsPrime(c) {
					t.Fatalf("NTTPrime(%d, %d) = %d skips the NTT prime %d", min, order, q, c)
				}
			}
		}
	}
	q, _, err := NTTPrime(1<<61, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []int{1 << 11, 1 << 9, 2} {
		if got, _, err := NTTPrime(q, order); err != nil || got != q {
			t.Errorf("NTTPrime(%d, %d) = %d, %v; want %d itself", q, order, got, err, q)
		}
	}
}

func TestLagrangeOneBasedIsBasis(t *testing.T) {
	f := Must(10007)
	const R = 20
	// At an interpolation point r0, the vector must be the indicator of r0.
	for r0 := uint64(1); r0 <= R; r0++ {
		v := f.LagrangeAtOneBased(R, r0)
		for r := 0; r < R; r++ {
			want := uint64(0)
			if uint64(r+1) == r0 {
				want = 1
			}
			if v[r] != want {
				t.Fatalf("Λ_%d(%d) = %d, want %d", r+1, r0, v[r], want)
			}
		}
	}
}

func TestLagrangeReproducesInterpolation(t *testing.T) {
	// Interpolate a known polynomial's values over 1..R, then check that
	// Σ_r f(r) Λ_r(x0) = f(x0) for off-grid x0.
	f := Must(10007)
	const R = 12
	poly := []uint64{3, 1, 4, 1, 5, 9, 2, 6} // degree 7 < R
	vals := make([]uint64, R)
	for r := 1; r <= R; r++ {
		vals[r-1] = f.Horner(poly, uint64(r))
	}
	for _, x0 := range []uint64{0, 100, 9999, 4321} {
		lam := f.LagrangeAtOneBased(R, x0)
		got := uint64(0)
		for r := 0; r < R; r++ {
			got = f.Add(got, f.Mul(vals[r], lam[r]))
		}
		if want := f.Horner(poly, x0); got != want {
			t.Fatalf("x0=%d: interpolated %d, want %d", x0, got, want)
		}
	}
}

func TestLagrangeZeroBased(t *testing.T) {
	f := Must(10007)
	const R = 16
	poly := []uint64{7, 0, 2, 0, 0, 1}
	vals := make([]uint64, R)
	for i := 0; i < R; i++ {
		vals[i] = f.Horner(poly, uint64(i))
	}
	// Indicator at grid points.
	phi := f.LagrangeAtZeroBased(R, 5)
	for i := range phi {
		want := uint64(0)
		if i == 5 {
			want = 1
		}
		if phi[i] != want {
			t.Fatalf("Φ_%d(5) = %d, want %d", i, phi[i], want)
		}
	}
	// Off-grid reconstruction.
	for _, x0 := range []uint64{R, 999, 10006} {
		lam := f.LagrangeAtZeroBased(R, x0)
		got := uint64(0)
		for i := 0; i < R; i++ {
			got = f.Add(got, f.Mul(vals[i], lam[i]))
		}
		if want := f.Horner(poly, x0); got != want {
			t.Fatalf("x0=%d: got %d, want %d", x0, got, want)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	f := Must((1 << 61) - 1)
	x, y := uint64(123456789012345), uint64(987654321098765)
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, y)
	}
	_ = x
}

func BenchmarkLagrangeVector(b *testing.B) {
	q, _, err := NTTPrime(1<<20, 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	f := Must(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.LagrangeAtOneBased(1<<14, 1<<19)
	}
}
