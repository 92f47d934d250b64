package ff

// Differential and fuzz tests of the run kernels
// (LagrangeEvaluator.BitSweepBlock and Sweep) against the one-shot
// Lagrange kernels, whose derivation shares nothing with them but the
// field.

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// basisOneShot is the basis vector over the grid base..base+R-1 at x
// from the one-shot kernels.
func basisOneShot(f Field, bigR int, base, x uint64) []uint64 {
	if base == 1 {
		return f.LagrangeAtOneBased(bigR, x)
	}
	return f.LagrangeAtZeroBased(bigR, x)
}

// bitSumOneShot is D(x) over the grid base..base+R-1 from the one-shot
// basis vector: coordinate j sums the basis values at the grid positions
// with bit j set.
func bitSumOneShot(f Field, bigR int, base, x uint64) []uint64 {
	phi := basisOneShot(f, bigR, base, x)
	z := make([]uint64, bits.Len(uint(bigR-1)))
	for i, v := range phi {
		for j := range z {
			if i>>uint(j)&1 == 1 {
				z[j] = f.Add(z[j], v)
			}
		}
	}
	return z
}

// checkSweep runs the block kernels on xs — BitSweepBlock with poisoned
// output and scratch — and compares every coordinate of every point with
// the one-shot; Sweep must visit every point once, in order.
func checkSweep(t *testing.T, f Field, bigR int, base uint64, xs []uint64) {
	t.Helper()
	le := f.newLagrangeEvaluator(bigR, base)
	visited := 0
	le.Sweep(xs, func(p int, lam []uint64) {
		if p != visited {
			t.Fatalf("q=%d R=%d base=%d xs=%v: Sweep visited point %d after %d points", f.Q, bigR, base, xs, p, visited)
		}
		visited++
		for i, w := range basisOneShot(f, bigR, base, xs[p]) {
			if lam[i] != w {
				t.Fatalf("q=%d R=%d base=%d xs=%v: Sweep's Λ_%d(xs[%d]=%d) = %d, one-shot %d", f.Q, bigR, base, xs, i, p, xs[p], lam[i], w)
			}
		}
	})
	if visited != len(xs) {
		t.Fatalf("q=%d R=%d base=%d xs=%v: Sweep visited %d of %d points", f.Q, bigR, base, xs, visited, len(xs))
	}
	m, nbits := len(xs), le.SweepBits()
	dst := make([]uint64, nbits*m)
	scratch := make([]uint64, le.SweepScratch(m))
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	for i := range scratch {
		scratch[i] = ^uint64(0)
	}
	le.BitSweepBlock(dst, xs, scratch)
	for p, x := range xs {
		want := bitSumOneShot(f, bigR, base, x)
		for j, w := range want {
			if got := dst[j*m+p]; got != w {
				t.Fatalf("q=%d R=%d base=%d xs=%v: D_%d(xs[%d]=%d) = %d, one-shot %d", f.Q, bigR, base, xs, j, p, x, got, w)
			}
		}
		if base == 0 && bigR == 1<<uint(nbits) {
			for j, v := range f.BitSweepAt(nbits, x) {
				if v != want[j] {
					t.Fatalf("q=%d R=%d: BitSweepAt(%d)[%d] = %d, one-shot %d", f.Q, bigR, x, j, v, want[j])
				}
			}
		}
	}
}

func consecutive(x0 uint64, n int) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = x0 + uint64(i)
	}
	return xs
}

func TestBitSweepBlockMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// 67 leaves three residues off a 64-point grid, so runs wrap at q
	// within a few points; 2^61-1 puts every difference and lazy sum at
	// the top of the word.
	for _, q := range []uint64{67, 1048583, 1<<61 - 1} {
		f := Must(q)
		for _, bigR := range []int{1, 2, 64} {
			for _, base := range []uint64{0, 1} {
				r := uint64(bigR)
				cases := [][]uint64{
					nil,
					consecutive(0, bigR+9),             // starts inside the grid, runs off its end
					consecutive(r-1, 5),                // straddles the end of the grid
					{base + r},                         // single-point run
					{base + r + 7, base + r + 7},       // duplicates
					{r + 9, r + 8, r + 7, r + 6},       // descending
					{r + 2, r + 4, r + 5, r + 9, 3},    // not consecutive
					consecutive(q-3, 8),                // broken by the wrap at q, then x >= q
					consecutive(q+base+r, 4),           // x >= q, consecutive residues
					{^uint64(0), 0, 1, ^uint64(0) - 1}, // far beyond q
					consecutive(base+r, 200),           // one long run
					consecutive(q-100, 100),            // a run ending at q-1
				}
				for _, xs := range cases {
					checkSweep(t, f, bigR, base, xs)
				}
				for trial := 0; trial < 20; trial++ {
					// Random runs glued together in random order.
					var xs []uint64
					for len(xs) < 40 {
						xs = append(xs, consecutive(rng.Uint64()%(2*q), 1+rng.Intn(12))...)
					}
					checkSweep(t, f, bigR, base, xs)
				}
			}
		}
	}
}

// TestBitSweepBlockConcurrent runs one evaluator's block kernels from
// several goroutines at once — what a compiled plan does — for the race
// detector to watch.
func TestBitSweepBlockConcurrent(t *testing.T) {
	f := Must(1048583)
	le := f.NewLagrangeEvaluatorZeroBased(64)
	xs := consecutive(60, 50)
	want := make([]uint64, le.SweepBits()*len(xs))
	le.BitSweepBlock(want, xs, make([]uint64, le.SweepScratch(len(xs))))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]uint64, len(want))
			scratch := make([]uint64, le.SweepScratch(len(xs)))
			for rep := 0; rep < 20; rep++ {
				le.Sweep(xs, func(p int, lam []uint64) {
					for j := range le.SweepBits() {
						sum := uint64(0)
						for i, v := range lam {
							if i>>uint(j)&1 == 1 {
								sum = f.Add(sum, v)
							}
						}
						if sum != want[j*len(xs)+p] {
							t.Errorf("concurrent Sweep: bit sum %d at point %d = %d, want %d", j, p, sum, want[j*len(xs)+p])
						}
					}
				})
				le.BitSweepBlock(got, xs, scratch)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("concurrent BitSweepBlock[%d] = %d, want %d", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func FuzzBitSweepBlock(f *testing.F) {
	f.Add(uint64(1048583), uint64(64), uint64(3), uint8(2), false)
	f.Add(uint64(67), uint64(66), uint64(1), uint8(2), true)
	f.Add(^uint64(0), ^uint64(0), uint64(0), uint8(1), false)
	f.Add(uint64(1)<<61, uint64(1)<<61, uint64(5), uint8(0), true)
	f.Fuzz(func(t *testing.T, q, x0, gap uint64, sel uint8, oneBased bool) {
		bigR := []int{1, 2, 64}[sel%3]
		q = NextPrime(uint64(bigR) + 1 + q%(1<<61))
		base := uint64(0)
		if oneBased {
			base = 1
		}
		// Two runs of three, a gap apart (a gap of 1 joins them; the sums
		// may wrap the word), and the first point again.
		xs := append(consecutive(x0, 3), consecutive(x0+2+gap, 3)...)
		xs = append(xs, x0)
		checkSweep(t, Must(q), bigR, base, xs)
	})
}
