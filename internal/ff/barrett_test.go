package ff

// The constructor's guards, the transform roots, the inlining guard for
// MulK and the microbenchmarks; the differential rows of the reduction
// kernels are in reference_test.go.

import (
	"math/bits"
	"os/exec"
	"strings"
	"testing"
)

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

// TestMulKStaysInlinable rebuilds this package with the inliner's debug
// output and fails if MulK, MulShoup or MulMont stopped inlining — MulK's
// cost sits exactly at the compiler's budget, so any edit can silently
// push it over and reintroduce a function call in every field multiply of
// every hot loop; MulShoup is every NTT butterfly's product, MulMont every
// product of the permanent's Gray-code sweep.
func TestMulKStaysInlinable(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "build", "-gcflags=-m=2", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	for _, fn := range []string{"MulK", "MulShoup", "MulMont"} {
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
	f := Must(topPrime)
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
	// The shape of every loop by a fixed multiplier (NTT twiddles, Horner's
	// x, yates coefficients): MulShoup against a companion computed once.
	b.Run("shoup", func(b *testing.B) {
		cs := ShoupOf(c, f.Q)
		for i := 0; i < b.N; i++ {
			for j := range xs {
				xs[j] = reduce2Q(MulShoup(xs[j], c, cs, f.Q), f.Q)
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
	f := Must(topPrime)
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

func BenchmarkMatMulDot32(b *testing.B) {
	// One 32×32 block of the eval_bound geometry over a 2^61-floor prime.
	f := Must(NextPrime(1 << 61))
	xs := benchOperands(f.Q)
	x, yt, w := xs[:1024], xs[1024:2048], xs[2048:3072]
	for b.Loop() {
		f.MatMulDot(x, yt, w, 32)
	}
}

func BenchmarkTrilinear16(b *testing.B) {
	// The group tensor of the eval_bound geometry (G = 16) over a
	// 2^61-floor prime.
	f := Must(NextPrime(1 << 61))
	xs := benchOperands(f.Q)
	x, y, z := xs[:16], xs[16:32], xs[32:48]
	t := make([]uint16, 16*16*16)
	for i := range t {
		t[i] = uint16(xs[(48+i)%len(xs)] >> 49)
	}
	yz := make([]uint64, 2*16*16)
	for b.Loop() {
		f.Trilinear(t, x, y, z, yz)
	}
}
