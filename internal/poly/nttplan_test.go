package poly

// The cached-plan NTT's reference, a self-contained division-based
// transform (the pre-plan implementation, kept here verbatim in spirit:
// twiddles rebuilt per call, Fermat inversions per multiply,
// hardware-division modmul), which polyRows holds the plan and
// transformLazy to; plan-cache concurrency; and the BenchmarkNTT pair.

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"camelot/internal/ff"
)

// refMulMod is the division-based modular multiply the reference
// transform uses — deliberately independent of package ff's reduction.
func refMulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, q)
	return rem
}

func refExpMod(a, e, q uint64) uint64 {
	a %= q
	r := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			r = refMulMod(r, a, q)
		}
		a = refMulMod(a, a, q)
		e >>= 1
	}
	return r
}

// refNTT is the pre-plan transform: bit-reversal computed inline and
// stage twiddles rebuilt by repeated squaring on every call.
func refNTT(a []uint64, w, q uint64) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		wl := w
		for m := n; m > length; m >>= 1 {
			wl = refMulMod(wl, wl, q)
		}
		for start := 0; start < n; start += length {
			wj := uint64(1)
			half := length / 2
			for j := 0; j < half; j++ {
				u := a[start+j]
				v := refMulMod(a[start+j+half], wj, q)
				a[start+j] = (u + v) % q
				a[start+j+half] = (u + q - v) % q
				wj = refMulMod(wj, wl, q)
			}
		}
	}
}

// refMulNTT is the pre-plan NTT product: two Fermat inversions per call.
func refMulNTT(a, b []uint64, n int, w, q uint64) []uint64 {
	fa := make([]uint64, n)
	fb := make([]uint64, n)
	copy(fa, a)
	copy(fb, b)
	refNTT(fa, w, q)
	refNTT(fb, w, q)
	for i := range fa {
		fa[i] = refMulMod(fa[i], fb[i], q)
	}
	refNTT(fa, refExpMod(w, q-2, q), q)
	invN := refExpMod(uint64(n)%q, q-2, q)
	for i := range fa {
		fa[i] = refMulMod(fa[i], invN, q)
	}
	return fa[:len(a)+len(b)-1]
}

// The ring's transform root is the one ff.NTTPrime reports: for orders
// 2^2..2^20 over the first four NTT primes from 2^61 up, squaring the
// ring's full-two-adicity root down to order 2^k lands on NTTPrime's.
func TestNewRingRootAgreesWithNTTPrime(t *testing.T) {
	for k := 2; k <= 20; k++ {
		min := uint64(1) << 61
		for i := 0; i < 4; i++ {
			q, root, err := ff.NTTPrime(min, 1<<k)
			if err != nil {
				t.Fatalf("NTTPrime(%d, 2^%d): %v", min, k, err)
			}
			if got := NewRing(ff.Must(q)).rootOfOrder(1 << k); got != root {
				t.Errorf("q=%d: ring's root of order 2^%d is %d, NTTPrime says %d", q, k, got, root)
			}
			min = q + 1
		}
	}
}

// TestNTTPlanConcurrent hammers one modulus+size from many goroutines —
// both through a shared ring and through per-goroutine rings — so the
// race detector sees the plan cache's first-use publication.
func TestNTTPlanConcurrent(t *testing.T) {
	q, _, err := ff.NTTPrime(1<<20, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewRing(ff.Must(q))
	rng := rand.New(rand.NewSource(31))
	a := randPoly(rng, shared.f, 299)
	b := randPoly(rng, shared.f, 300)
	want := shared.mulNaive(a, b)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(own bool) {
			defer wg.Done()
			r := shared
			if own {
				r = NewRing(ff.Must(q))
			}
			for i := 0; i < 20; i++ {
				if !Equal(r.Mul(a, b), want) {
					errs <- "concurrent NTT product mismatch"
					return
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// BenchmarkNTT times one size-4096 polynomial product through the cached
// plan and through the pre-plan division-based reference (twiddles
// rebuilt, Fermat inversions per call).
func BenchmarkNTT(b *testing.B) {
	q, _, err := ff.NTTPrime(1<<45, 1<<13)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRing(ff.Must(q))
	rng := rand.New(rand.NewSource(37))
	a := randPoly(rng, r.f, 2047)
	c := randPoly(rng, r.f, 2047)
	n := nttSize(len(a) + len(c) - 1)
	w := r.rootOfOrder(n)
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.mulNTT(a, c, n)
		}
	})
	b.Run("div-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refMulNTT(a, c, n, w, q)
		}
	})
}
