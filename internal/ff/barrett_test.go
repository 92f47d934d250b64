package ff

// Differential tests pinning the precomputed-reciprocal (Barrett /
// Möller–Granlund) reduction against the retired division-based
// implementation, bit for bit, across the full supported modulus range —
// plus the inlining guard for MulK and the microbenchmarks.

import (
	"math/bits"
	"math/rand"
	"os/exec"
	"strings"
	"testing"
)

// prevPrime returns the largest prime <= n (n >= 2).
func prevPrime(n uint64) uint64 {
	for !IsPrime(n) {
		n--
	}
	return n
}

// expDiv is Exp through the division reference path.
func (f Field) expDiv(a, e uint64) uint64 {
	a %= f.Q
	result := uint64(1 % f.Q)
	for e > 0 {
		if e&1 == 1 {
			result = f.mulDiv(result, a)
		}
		a = f.mulDiv(a, a)
		e >>= 1
	}
	return result
}

// diffModuli is the modulus sweep every differential test runs over:
// the smallest primes, mid-range primes (including NTT-friendly ones the
// protocol actually selects), and the edge just below 2^62.
func diffModuli(t testing.TB) []uint64 {
	qs := []uint64{2, 3, 5, 7, 65537, 1048583, (1 << 31) - 1, (1 << 61) - 1}
	qs = append(qs, prevPrime(MaxPrime))
	qs = append(qs, prevPrime(MaxPrime-1<<20))
	if q, _, err := NTTPrime(1<<45, 1<<12); err == nil {
		qs = append(qs, q)
	} else {
		t.Fatalf("NTTPrime: %v", err)
	}
	return qs
}

func TestMulMatchesDivisionReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, q := range diffModuli(t) {
		f := Must(q)
		edge := []uint64{0, 1, 2, q / 2, q - 2, q - 1}
		for _, a := range edge {
			for _, b := range edge {
				a, b := a%q, b%q
				if got, want := f.Mul(a, b), f.mulDiv(a, b); got != want {
					t.Fatalf("q=%d: Mul(%d,%d) = %d, reference %d", q, a, b, got, want)
				}
			}
		}
		for i := 0; i < 5000; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if got, want := f.Mul(a, b), f.mulDiv(a, b); got != want {
				t.Fatalf("q=%d: Mul(%d,%d) = %d, reference %d", q, a, b, got, want)
			}
		}
	}
}

func TestMulMatchesDivisionReferenceRandomPrimes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		q := NextPrime(2 + rng.Uint64()%(1<<61))
		f := Must(q)
		for j := 0; j < 500; j++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if got, want := f.Mul(a, b), f.mulDiv(a, b); got != want {
				t.Fatalf("q=%d: Mul(%d,%d) = %d, reference %d", q, a, b, got, want)
			}
		}
	}
}

func TestReduceUMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, q := range diffModuli(t) {
		f := Must(q)
		for _, x := range []uint64{0, 1, q - 1, q, q + 1, 2*q - 1, ^uint64(0), ^uint64(0) - 1} {
			if got, want := f.ReduceU(x), x%q; got != want {
				t.Fatalf("q=%d: ReduceU(%d) = %d, want %d", q, x, got, want)
			}
		}
		for i := 0; i < 5000; i++ {
			x := rng.Uint64()
			if got, want := f.ReduceU(x), x%q; got != want {
				t.Fatalf("q=%d: ReduceU(%d) = %d, want %d", q, x, got, want)
			}
		}
	}
}

func TestExpMatchesDivisionReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, q := range diffModuli(t) {
		f := Must(q)
		for i := 0; i < 200; i++ {
			a, e := rng.Uint64(), rng.Uint64()
			if got, want := f.Exp(a, e), f.expDiv(a, e); got != want {
				t.Fatalf("q=%d: Exp(%d,%d) = %d, reference %d", q, a, e, got, want)
			}
		}
	}
}

func TestMulExhaustiveTinyFields(t *testing.T) {
	for _, q := range []uint64{2, 3, 5, 7, 11, 13} {
		f := Must(q)
		for a := uint64(0); a < q; a++ {
			for b := uint64(0); b < q; b++ {
				if got, want := f.Mul(a, b), a*b%q; got != want {
					t.Fatalf("q=%d: Mul(%d,%d) = %d, want %d", q, a, b, got, want)
				}
			}
		}
	}
}

func TestMulPanicsOnUnconstructedField(t *testing.T) {
	var f Field
	f.Q = 97 // simulating the old ff.Field{Q: q} literal
	for name, op := range map[string]func(){
		"Mul":     func() { f.Mul(3, 4) },
		"ReduceU": func() { f.ReduceU(1000) },
		"Kernel":  func() { f.Kernel() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on literal Field did not panic", name)
				}
			}()
			op()
		}()
	}
}

func TestNewIsMemoized(t *testing.T) {
	a := Must(1048583)
	b := Must(1048583)
	if a != b {
		t.Fatalf("Must returned distinct Fields for the same modulus: %+v vs %+v", a, b)
	}
	if _, err := New(1048584); err == nil {
		t.Fatal("New accepted a composite")
	}
}

// The transform root at the width the framework runs at: for every order
// 2^2..2^20 and the first four NTT primes from 2^61 up, NTTPrime's root r
// has order exactly 2^k — r^(2^k) = 1 and r^(2^(k-1)) = -1 — and
// RootOfUnity hands the same root to anyone holding the field.
func TestRootOfUnityWidePrimes(t *testing.T) {
	for k := 2; k <= 20; k++ {
		min := uint64(1) << 61
		for i := 0; i < 4; i++ {
			q, r, err := NTTPrime(min, 1<<k)
			if err != nil {
				t.Fatalf("NTTPrime(%d, 2^%d): %v", min, k, err)
			}
			if q < min || q > MaxPrime || (q-1)%(1<<k) != 0 {
				t.Fatalf("NTTPrime(%d, 2^%d) = %d: out of range or 2^%d does not divide q-1", min, k, q, k)
			}
			f := Must(q)
			if f.Exp(r, 1<<k) != 1 || f.Exp(r, 1<<(k-1)) != q-1 {
				t.Errorf("q=%d k=%d: root %d does not have order 2^%d", q, k, r, k)
			}
			if got := f.RootOfUnity(k); got != r {
				t.Errorf("q=%d k=%d: RootOfUnity = %d, NTTPrime says %d", q, k, got, r)
			}
			min = q + 1
		}
	}
}

// Small and degenerate fields: the order-1 root is 1, the order-2 root
// is -1, and asking for more two-power than q-1 holds is a caller's bug.
func TestRootOfUnitySmallFields(t *testing.T) {
	for _, q := range []uint64{2, 3, 5, 97, 65537, 1048583} {
		f := Must(q)
		if got := f.RootOfUnity(0); got != 1 {
			t.Errorf("q=%d: RootOfUnity(0) = %d", q, got)
		}
		k := bits.TrailingZeros64(q - 1)
		if k > 0 {
			if r := f.RootOfUnity(k); f.Exp(r, 1<<(k-1)) != q-1 {
				t.Errorf("q=%d: RootOfUnity(%d) = %d is not of order 2^%d", q, k, r, k)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("q=%d: RootOfUnity(%d) did not panic", q, k+1)
				}
			}()
			f.RootOfUnity(k + 1)
		}()
	}
}

func TestBatchInvScratchMatchesBatchInv(t *testing.T) {
	f := Must(1048583)
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 2, 33, 500} {
		xs := make([]uint64, n)
		ys := make([]uint64, n)
		for i := range xs {
			xs[i] = 1 + rng.Uint64()%(f.Q-1)
			ys[i] = xs[i]
		}
		scratch := make([]uint64, n)
		f.BatchInv(xs)
		f.BatchInvScratch(ys, scratch)
		for i := range xs {
			if xs[i] != ys[i] {
				t.Fatalf("n=%d pos %d: BatchInv %d != BatchInvScratch %d", n, i, xs[i], ys[i])
			}
			if f.Mul(xs[i], ys[i]) != f.Mul(xs[i], xs[i]) {
				t.Fatalf("inconsistent inverses")
			}
		}
	}
}

// TestMulKStaysInlinable rebuilds this package with the inliner's debug
// output and fails if MulK or MulShoup stopped inlining — MulK's cost
// sits exactly at the compiler's budget, so any edit can silently push it
// over and reintroduce a function call in every field multiply of every
// hot loop; MulShoup is every NTT butterfly's product.
func TestMulKStaysInlinable(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "build", "-gcflags=-m=2", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	for _, fn := range []string{"MulK", "MulShoup"} {
		if !strings.Contains(string(out), "can inline "+fn+" ") {
			for _, line := range strings.Split(string(out), "\n") {
				if strings.Contains(line, fn) {
					t.Logf("%s", line)
				}
			}
			t.Fatalf("%s is no longer inlinable; trim its cost back under the budget", fn)
		}
	}
}

func FuzzMul(f *testing.F) {
	f.Add(uint64(1048583), uint64(3), uint64(5))
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, q, a, b uint64) {
		// Map q onto a supported prime deterministically; the bound keeps
		// NextPrime comfortably below MaxPrime.
		q = NextPrime(2 + q%(1<<61))
		fl := Must(q)
		a, b = a%q, b%q
		if got, want := fl.Mul(a, b), fl.mulDiv(a, b); got != want {
			t.Fatalf("q=%d: Mul(%d,%d) = %d, reference %d", q, a, b, got, want)
		}
		if got, want := fl.ReduceU(a+b), (a+b)%q; got != want {
			t.Fatalf("q=%d: ReduceU(%d) = %d, want %d", q, a+b, got, want)
		}
	})
}

// --- microbenchmarks ----------------------------------------------------------

func benchOperands(q uint64) []uint64 {
	xs := make([]uint64, 4096)
	s := uint64(12345)
	for i := range xs {
		s = s*6364136223846793005 + 1442695040888963407
		xs[i] = s % q
	}
	return xs
}

// BenchmarkFieldMul measures one multiply-reduce over a 4096-element
// stream: the division-free kernel (MulK), the Field.Mul method (same
// arithmetic behind a non-inlined call), and the retired hardware-
// division reference.
func BenchmarkFieldMul(b *testing.B) {
	f := Must(prevPrime(MaxPrime))
	xs := benchOperands(f.Q)
	c := xs[7] | 1
	b.Run("barrett-kernel", func(b *testing.B) {
		k := f.Kernel()
		for i := 0; i < b.N; i++ {
			for j := range xs {
				xs[j] = MulK(xs[j], c, k)
			}
		}
	})
	// The shape the pipeline's tightest loops actually use: the constant
	// operand's normalization shift hoisted out of the loop (NTT twiddle
	// tables are stored pre-shifted; DivMod/Horner/yates hoist per-row).
	b.Run("barrett-kernel-preshifted", func(b *testing.B) {
		k := f.Kernel()
		cs := k.Shift(c)
		for i := 0; i < b.N; i++ {
			for j := range xs {
				xs[j] = MulKS(xs[j], cs, k)
			}
		}
	})
	b.Run("barrett-method", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range xs {
				xs[j] = f.Mul(xs[j], c)
			}
		}
	})
	b.Run("div-reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range xs {
				xs[j] = f.mulDiv(xs[j], c)
			}
		}
	})
}

func BenchmarkFieldExp(b *testing.B) {
	f := Must(prevPrime(MaxPrime))
	x := uint64(0)
	for i := 0; i < b.N; i++ {
		x = f.Exp(x+3, f.Q-2)
	}
	_ = x
}

func BenchmarkBatchInv(b *testing.B) {
	f := Must(1048583)
	xs := benchOperands(f.Q)
	for i := range xs {
		xs[i] |= 1
	}
	b.Run("alloc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.BatchInv(xs)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		scratch := make([]uint64, len(xs))
		for i := 0; i < b.N; i++ {
			f.BatchInvScratch(xs, scratch)
		}
	})
}

// BenchmarkLagrangeEvaluatorAt times the batch-evaluation workhorse on a
// permanent-sized grid; the satellite claim is that the hoisted grid
// reductions and the scratch-reusing batch inversion made it faster and
// allocation-free.
func BenchmarkLagrangeEvaluatorAt(b *testing.B) {
	q, _, err := NTTPrime(1<<20, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	f := Must(q)
	le := f.NewLagrangeEvaluatorZeroBased(1 << 10)
	out := make([]uint64, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		le.At(uint64(1<<10+i), out)
	}
}
