package ff

// Differential and fuzz tests pinning the 4-wide unrolled lazy-reduction
// sweeps (vec.go) against scalar Field-op reference loops, bit for bit,
// across the diffModuli sweep — including lazy inputs pushed to the top
// of their allowed ranges ([0,4q) first operands, unreduced [0,2q) sums).

import (
	"math"
	"math/rand"
	"testing"
)

// lazyLift returns a copy of xs with each canonical entry lifted by a
// pseudo-random multiple of q chosen below the given bound (lift<4 means
// values in [0, 4q)), skipping lifts that would overflow uint64.
func lazyLift(xs []uint64, q uint64, lift int, rng *rand.Rand) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		m := uint64(rng.Intn(lift))
		for m > 0 && x+m*q < x {
			m--
		}
		out[i] = x + m*q
	}
	return out
}

func randVec(n int, q uint64, rng *rand.Rand) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = rng.Uint64() % q
	}
	return xs
}

func TestMulVecKSMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, q := range diffModuli(t) {
		f := Must(q)
		k := f.Kernel()
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 64, 129} {
			a := randVec(n, q, rng)
			b := rng.Uint64() % q
			want := make([]uint64, n)
			for i := range a {
				want[i] = f.Mul(a[i], b)
			}
			lazy := lazyLift(a, q, 4, rng)
			got := make([]uint64, n)
			MulVecKS(got, lazy, k.Shift(b), k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d n=%d: MulVecKS[%d] = %d, want %d (lazy a=%d)", q, n, i, got[i], want[i], lazy[i])
				}
			}
			// Aliased dst == a must work too.
			MulVecKS(lazy, lazy, k.Shift(b), k)
			for i := range want {
				if lazy[i] != want[i] {
					t.Fatalf("q=%d n=%d: aliased MulVecKS[%d] = %d, want %d", q, n, i, lazy[i], want[i])
				}
			}
		}
	}
}

func TestMulVecShoupMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, q := range diffModuli(t) {
		f := Must(q)
		for _, n := range []int{0, 1, 3, 4, 5, 8, 129} {
			a := randVec(n, q, rng)
			w := rng.Uint64() % q
			lazy := lazyLift(a, q, 4, rng)
			lazy = append(lazy, ^uint64(0)) // any word, not only the lazy range
			a = append(a, (^uint64(0))%q)
			got := make([]uint64, len(lazy))
			MulVecShoup(got, lazy, w, ShoupOf(w, q), q)
			for i := range a {
				if want := f.Mul(a[i], w); got[i] != want {
					t.Fatalf("q=%d n=%d: MulVecShoup[%d] = %d, want %d (a=%d)", q, n, i, got[i], want, lazy[i])
				}
			}
		}
	}
}

func TestMulVecKMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, q := range diffModuli(t) {
		f := Must(q)
		k := f.Kernel()
		for _, n := range []int{0, 1, 3, 4, 6, 8, 100} {
			a := randVec(n, q, rng)
			b := randVec(n, q, rng)
			want := make([]uint64, n)
			for i := range a {
				want[i] = f.Mul(a[i], b[i])
			}
			lazy := lazyLift(a, q, 4, rng)
			got := make([]uint64, n)
			MulVecK(got, lazy, b, k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d n=%d: MulVecK[%d] = %d, want %d", q, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMulScaleVecKSMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, q := range diffModuli(t) {
		f := Must(q)
		k := f.Kernel()
		for _, n := range []int{0, 1, 3, 4, 5, 8, 77} {
			a := randVec(n, q, rng)
			b := randVec(n, q, rng)
			c := rng.Uint64() % q
			want := make([]uint64, n)
			for i := range a {
				want[i] = f.Mul(f.Mul(a[i], b[i]), c)
			}
			lazy := lazyLift(a, q, 4, rng)
			got := make([]uint64, n)
			MulScaleVecKS(got, lazy, b, k.Shift(c), k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d n=%d: MulScaleVecKS[%d] = %d, want %d", q, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMulSumVecKMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, q := range diffModuli(t) {
		f := Must(q)
		k := f.Kernel()
		for _, n := range []int{0, 1, 3, 4, 5, 8, 33} {
			for trial := 0; trial < 8; trial++ {
				a := randVec(n, q, rng)
				src := randVec(n, q, rng)
				tv := rng.Uint64() % q
				if trial%3 == 1 && n > 0 {
					// A zero product and a sum that is exactly q: both must
					// come out as canonical zeros.
					src[rng.Intn(n)] = 0
					a[rng.Intn(n)] = q - tv
				}
				if trial%3 == 2 {
					tv = q - 1 // sums at the top of the lazy range
				}
				want := make([]uint64, n)
				for i := range want {
					want[i] = f.Mul(f.Add(a[i], tv), src[i])
				}
				got := make([]uint64, n)
				MulSumVecK(got, src, a, tv, k)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("q=%d n=%d: MulSumVecK[%d] = %d, want %d", q, n, i, got[i], want[i])
					}
				}
				// Aliased dst == src, as the sweep runs it.
				MulSumVecK(src, src, a, tv, k)
				for i := range want {
					if src[i] != want[i] {
						t.Fatalf("q=%d n=%d: aliased MulSumVecK[%d] = %d, want %d", q, n, i, src[i], want[i])
					}
				}
			}
		}
	}
}

func TestReduceVec4Q(t *testing.T) {
	for _, q := range diffModuli(t) {
		rng := rand.New(rand.NewSource(int64(q)))
		xs := randVec(50, q, rng)
		lazy := lazyLift(xs, q, 4, rng)
		ReduceVec4Q(lazy, q)
		for i := range xs {
			if lazy[i] != xs[i] {
				t.Fatalf("q=%d: ReduceVec4Q[%d] = %d, want %d", q, i, lazy[i], xs[i])
			}
		}
	}
}

func TestAddSubVecMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, q := range diffModuli(t) {
		f := Must(q)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 64, 129} {
			a, b := randVec(n, q, rng), randVec(n, q, rng)
			if n > 2 { // the wrap-around edges of Add and Sub
				a[0], b[0] = q-1, q-1
				a[1], b[1] = 0, q-1
			}
			sum, diff := make([]uint64, n), make([]uint64, n)
			for i := range a {
				sum[i], diff[i] = (a[i]+b[i])%q, (a[i]+q-b[i])%q
			}
			got := make([]uint64, n)
			f.AddVec(got, a, b)
			for i := range sum {
				if got[i] != sum[i] {
					t.Fatalf("q=%d n=%d: AddVec[%d] = %d, want %d", q, n, i, got[i], sum[i])
				}
			}
			f.SubVec(got, a, b)
			for i := range diff {
				if got[i] != diff[i] {
					t.Fatalf("q=%d n=%d: SubVec[%d] = %d, want %d", q, n, i, got[i], diff[i])
				}
			}
			// Aliased dst == a is how the Yates kernel accumulates.
			acc := append([]uint64(nil), a...)
			f.AddVec(acc, acc, b)
			f.SubVec(acc, acc, b)
			for i := range a {
				if acc[i] != a[i] {
					t.Fatalf("q=%d n=%d: aliased AddVec then SubVec [%d] = %d, want %d", q, n, i, acc[i], a[i])
				}
			}
			// b one entry ahead of dst is the forward-difference step.
			if n > 0 {
				f.AddVec(acc[:n-1], acc[:n-1], acc[1:])
				for i := 0; i < n-1; i++ {
					if want := (a[i] + a[i+1]) % q; acc[i] != want {
						t.Fatalf("q=%d n=%d: shifted AddVec [%d] = %d, want %d", q, n, i, acc[i], want)
					}
				}
			}
		}
	}
}

// matMulDotScalar is MatMulDot through the division reference, one
// reduction per operation.
func matMulDotScalar(f Field, x, yt, w []uint64, n int) uint64 {
	acc := uint64(0)
	for d := 0; d < n; d++ {
		for fc := 0; fc < n; fc++ {
			xy := uint64(0)
			for e := 0; e < n; e++ {
				xy = f.Add(xy, f.mulDiv(x[d*n+e], yt[fc*n+e]))
			}
			acc = f.Add(acc, f.mulDiv(xy, w[d*n+fc]))
		}
	}
	return acc
}

func TestMatMulDotMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, q := range diffModuli(t) {
		f := Must(q)
		for _, n := range []int{0, 1, 2, 3, 16, 27, 32, 64} {
			for _, top := range []bool{false, true} {
				x, yt, w := randVec(n*n, q, rng), randVec(n*n, q, rng), randVec(n*n, q, rng)
				if top { // all q−1: every product at its largest, the carry word busiest
					for i := range x {
						x[i], yt[i], w[i] = q-1, q-1, q-1
					}
				}
				if got, want := f.MatMulDot(x, yt, w, n), matMulDotScalar(f, x, yt, w, n); got != want {
					t.Fatalf("q=%d n=%d top=%v: MatMulDot = %d, want %d", q, n, top, got, want)
				}
			}
		}
	}
}

// trilinearScalar is Trilinear through the division reference, one
// reduction per operation.
func trilinearScalar(f Field, t []uint16, x, y, z []uint64) uint64 {
	g, acc := len(z), uint64(0)
	for a := range x {
		for b := range y {
			for c := range z {
				tv := f.mulDiv(uint64(t[(a*g+b)*g+c])%f.Q, z[c])
				acc = f.Add(acc, f.mulDiv(x[a], f.mulDiv(y[b], tv)))
			}
		}
	}
	return acc
}

func TestTrilinearMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, q := range diffModuli(t) {
		f := Must(q)
		for _, g := range []int{0, 1, 2, 4, 16, 31} {
			for _, top := range []bool{false, true} {
				x, y, z := randVec(g, q, rng), randVec(g, q, rng), randVec(g, q, rng)
				tensor := make([]uint16, g*g*g)
				for i := range tensor {
					tensor[i] = uint16(rng.Uint32())
				}
				if top { // vectors all q−1, tensor all 2^16−1: every sum at its largest
					for _, v := range [][]uint64{x, y, z} {
						for i := range v {
							v[i] = q - 1
						}
					}
					for i := range tensor {
						tensor[i] = math.MaxUint16
					}
				}
				if got, want := f.Trilinear(tensor, x, y, z, make([]uint64, 2*g*g+1)), trilinearScalar(f, tensor, x, y, z); got != want {
					t.Fatalf("q=%d g=%d top=%v: Trilinear = %d, want %d", q, g, top, got, want)
				}
			}
		}
	}
}

// mulAddPolyScalar is MulAddPoly through the division reference, one
// reduction per operation, into a copy of p.
func mulAddPolyScalar(f Field, p, c, b []uint64) []uint64 {
	out := append([]uint64(nil), p...)
	for i, ci := range c {
		for j, bj := range b {
			if i+j < len(out) {
				out[i+j] = f.Add(out[i+j], f.mulDiv(ci, bj))
			}
		}
	}
	return out
}

func TestMulAddPolyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, q := range diffModuli(t) {
		f := Must(q)
		// len(p), len(c), len(b): empty operands, p cut below the full
		// product or reaching past it, c of odd and even length (one pass
		// per pair of coefficients), c longer than p.
		for _, n := range [][3]int{{0, 1, 1}, {3, 0, 2}, {3, 2, 0}, {1, 1, 1}, {6, 2, 5}, {4, 2, 5},
			{12, 2, 5}, {9, 3, 7}, {20, 5, 10}, {3, 6, 2}, {40, 8, 33}} {
			for _, top := range []bool{false, true} {
				p, c, b := randVec(n[0], q, rng), randVec(n[1], q, rng), randVec(n[2], q, rng)
				if top { // all q−1: every sum at its largest
					for _, v := range [][]uint64{p, c, b} {
						for i := range v {
							v[i] = q - 1
						}
					}
				}
				want := mulAddPolyScalar(f, p, c, b)
				f.MulAddPoly(p, c, b)
				for i := range want {
					if p[i] != want[i] {
						t.Fatalf("q=%d lengths %v top=%v: MulAddPoly[%d] = %d, want %d", q, n, top, i, p[i], want[i])
					}
				}
			}
		}
	}
}

func BenchmarkMatMulDot32(b *testing.B) {
	// One 32×32 block of the eval_bound geometry over a 2^61-floor prime.
	f := Must(NextPrime(1 << 61))
	rng := rand.New(rand.NewSource(1))
	x, yt, w := randVec(1024, f.Q, rng), randVec(1024, f.Q, rng), randVec(1024, f.Q, rng)
	for b.Loop() {
		f.MatMulDot(x, yt, w, 32)
	}
}

func FuzzMulVecKS(f *testing.F) {
	f.Add(uint64(1048583), uint64(3), uint64(5), uint64(2))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), uint64(3))
	f.Fuzz(func(t *testing.T, q, a, b, lift uint64) {
		q = NextPrime(2 + q%(1<<61))
		fl := Must(q)
		k := fl.Kernel()
		a, b = a%q, b%q
		al := a + (lift%4)*q // lazy first operand, < 4q
		if al < a {
			al = a
		}
		src := []uint64{al, al, al, al, al} // crosses the 4-wide boundary
		dst := make([]uint64, len(src))
		MulVecKS(dst, src, k.Shift(b), k)
		want := fl.mulDiv(a, b)
		for i, got := range dst {
			if got != want {
				t.Fatalf("q=%d: MulVecKS[%d](%d,%d) = %d, reference %d", q, i, al, b, got, want)
			}
		}
	})
}

func FuzzMulSumVecK(f *testing.F) {
	f.Add(uint64(65537), uint64(1), uint64(2), uint64(3))
	f.Add(^uint64(0), uint64(0), ^uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, q, x, y, tv uint64) {
		q = NextPrime(2 + q%(1<<61))
		fl := Must(q)
		k := fl.Kernel()
		x, y, tv = x%q, y%q, tv%q
		a := []uint64{x, y, x, y, x, y} // crosses the 4-wide boundary
		src := []uint64{y, x, y, x, y, x}
		dst := make([]uint64, len(a))
		MulSumVecK(dst, src, a, tv, k)
		for i := range a {
			if want := fl.mulDiv((a[i]+tv)%q, src[i]); dst[i] != want {
				t.Fatalf("q=%d: MulSumVecK(%v, %v, %d)[%d] = %d, reference %d", q, src, a, tv, i, dst[i], want)
			}
		}
	})
}

func BenchmarkTrilinear16(b *testing.B) {
	// The group tensor of the eval_bound geometry (G = 16) over a
	// 2^61-floor prime.
	f := Must(NextPrime(1 << 61))
	rng := rand.New(rand.NewSource(1))
	x, y, z := randVec(16, f.Q, rng), randVec(16, f.Q, rng), randVec(16, f.Q, rng)
	t := make([]uint16, 16*16*16)
	for i := range t {
		t[i] = uint16(rng.Intn(1 << 15))
	}
	yz := make([]uint64, 2*16*16)
	for b.Loop() {
		f.Trilinear(t, x, y, z, yz)
	}
}
