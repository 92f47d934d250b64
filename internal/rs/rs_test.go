package rs

import (
	"errors"
	"math/rand"
	"testing"

	"camelot/internal/ff"
	"camelot/internal/par"
	"camelot/internal/poly"
)

func newTestCode(t testing.TB, e, d int) *Code {
	t.Helper()
	q, _, err := ff.NTTPrime(uint64(4*e), 4*e)
	if err != nil {
		t.Fatal(err)
	}
	ring := poly.NewRing(ff.Must(q))
	c, err := New(ring, ConsecutivePoints(e), d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randMessage(rng *rand.Rand, f ff.Field, d int) []uint64 {
	m := make([]uint64, d+1)
	for i := range m {
		m[i] = rng.Uint64() % f.Q
	}
	return m
}

func TestNewValidation(t *testing.T) {
	ring := poly.NewRing(ff.Must(97))
	tests := []struct {
		name   string
		points []uint64
		d      int
		ok     bool
	}{
		{"valid", []uint64{0, 1, 2, 3}, 1, true},
		{"d too large", []uint64{0, 1, 2}, 3, false},
		{"negative d", []uint64{0, 1}, -1, false},
		{"duplicate points", []uint64{0, 1, 1}, 1, false},
		{"duplicate mod q", []uint64{0, 1, 98}, 1, false},
		// The locator walks the grid 0..e-1: distinct points off it are
		// refused too.
		{"spaced grid", []uint64{0, 2, 4, 6}, 1, false},
		{"shifted grid", []uint64{1, 2, 3, 4}, 1, false},
		{"permuted grid", []uint64{1, 0, 2, 3}, 1, false},
		{"grid past q", ConsecutivePoints(98), 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(ring, tt.points, tt.d)
			if (err == nil) != tt.ok {
				t.Fatalf("New error = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestEncodeRejectsLongMessage(t *testing.T) {
	c := newTestCode(t, 16, 3)
	if _, err := c.Encode(make([]uint64, 5)); err == nil {
		t.Fatal("want error for message longer than d+1")
	}
}

func TestDecodeWrongLength(t *testing.T) {
	c := newTestCode(t, 16, 3)
	if _, _, _, err := c.Decode(make([]uint64, 15)); err == nil {
		t.Fatal("want error for wrong received-word length")
	}
}

func TestCorrectionRadiusFormula(t *testing.T) {
	tests := []struct{ e, d, want int }{
		{10, 9, 0}, {10, 5, 2}, {100, 10, 44}, {3, 0, 1},
	}
	for _, tt := range tests {
		ring := poly.NewRing(ff.Must(257))
		c, err := New(ring, ConsecutivePoints(tt.e), tt.d)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.CorrectionRadius(); got != tt.want {
			t.Errorf("radius(e=%d,d=%d) = %d, want %d", tt.e, tt.d, got, tt.want)
		}
	}
}

func BenchmarkEncode1024(b *testing.B) {
	c := newTestCode(b, 1024, 500)
	rng := rand.New(rand.NewSource(1))
	msg := randMessage(rng, c.Field(), 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// decodeBoundWords returns the benchmark's decode_bound geometry — e=1157,
// d=756 over the 61-bit NTT prime the engine's primes resemble — with a
// message, its codeword and a copy of that carrying the lying node 1's
// block of 145 errors (of 8 nodes).
// (Over a small NTT prime such as newTestCode's, the locator almost surely
// vanishes at one of the quotient's transform points and Quotient takes
// its Mul and DivMod fallback, which the engine never does.)
func decodeBoundWords(tb testing.TB) (c *Code, msg, clean, garbled []uint64) {
	return blockErrorWords(tb, 1157, 756, 145, 290)
}

// blockErrorWords is decodeBoundWords at another geometry, with the
// errors at positions lo..hi-1. e=1535, d=1134 with errors at 192..383
// is decode_bound before its permanent declared the degree it has.
func blockErrorWords(tb testing.TB, e, d, lo, hi int) (c *Code, msg, clean, garbled []uint64) {
	q, _, err := ff.NTTPrime(1<<61, 4096)
	if err != nil {
		tb.Fatal(err)
	}
	if c, err = New(poly.NewRing(ff.Must(q)), ConsecutivePoints(e), d); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	msg = randMessage(rng, c.Field(), d)
	clean, _ = c.Encode(msg)
	garbled = append([]uint64(nil), clean...)
	for i := lo; i < hi; i++ {
		garbled[i] = c.Field().Add(garbled[i], 1+rng.Uint64()%(c.Field().Q-1))
	}
	return c, msg, clean, garbled
}

// BenchmarkDecode times one warm decode at the decode_bound geometry: a
// clean word, a lying node's block of 145 errors, and the whole budget
// spent on erasures through a reused plan.
func BenchmarkDecode(b *testing.B) {
	c, _, cw, garbled := decodeBoundWords(b)
	full, _ := c.ErasurePlan(nil)
	e := len(cw)
	shortened, err := c.ErasurePlan(rand.New(rand.NewSource(1)).Perm(e)[:e-c.d-1])
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		plan *ErasurePlan
		word []uint64
	}{{"clean", full, cw}, {"errors", full, garbled}, {"erasures", shortened, cw}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := bc.plan.Decode(bc.word); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeStages times the five steps of one warm decode, each
// called as decodeOver calls it, on BenchmarkDecode's errors row, and the
// tail — quotient beside locator, then open, scheduled as decodeOver does
// it — so that interpolate + euclid + tail sum to decode. Minima of six
// -cpu 1 runs on a busy 2-vCPU host, alternating with the same benchmark
// at e=1535, d=1134 and 192 errors, in ms: interpolate 0.84, euclid 0.42,
// quotient 0.24, locator 0.18, open 0.09, tail 0.50, decode 1.55 (at
// e=1535: 0.84, 0.57, 0.20, 0.33, 0.12, 0.70, decode 2.43; the subproduct
// tree is padded to 2048 leaves either way, so interpolate does not
// shrink). The table a decode change starts from; nothing gates on it.
func BenchmarkDecodeStages(b *testing.B) {
	c, _, _, word := decodeBoundWords(b)
	e, d := len(c.points), c.d
	ps, ring := c.ps, c.ring
	g1 := ps.Interpolate(word)
	u, v := ring.PartialXGCD(ps.Product(), g1, (e+d+1)/2)
	p, ok := ps.Quotient(u, v, g1, d)
	locator := locate(ring, v, e, nil)
	if _, locs := c.open(ps, p, u, v, locator, word, nil); !ok || len(locs) != 145 {
		b.Fatalf("quotient ok=%v, %d error locations", ok, len(locs))
	}
	for _, stage := range []struct {
		name string
		run  func()
	}{
		{"interpolate", func() { ps.Interpolate(word) }},
		{"euclid", func() { ring.PartialXGCD(ps.Product(), g1, (e+d+1)/2) }},
		{"quotient", func() { ps.Quotient(u, v, g1, d) }},
		{"locator", func() { locate(ring, v, e, nil) }},
		{"open", func() { c.open(ps, p, u, v, locator, word, nil) }},
		{"tail", func() { c.tail(ps, u, v, g1, word, nil) }},
		{"decode", func() { c.Decode(word) }},
	} {
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stage.run()
			}
		})
	}
}

// TestDecodeParallelRefusesBeyondRadius pins the order of the decode's
// tail. The word is built so that Euclid stops at v = c·(x−a)² for a grid
// point a, with g = (x−a)·h, h(a) ≠ 0: v does not divide g, so the
// quotient refuses, while the locator finds the root a, at which
// v'(a) = 0. open at that root would invert zero; it must not run before
// the quotient's verdict, at any parallelism.
func TestDecodeParallelRefusesBeyondRadius(t *testing.T) {
	c, _, _, _ := decodeBoundWords(t)
	f, ring := c.Field(), c.ring
	e, d := len(c.points), c.d
	const a = 700
	rng := rand.New(rand.NewSource(5))
	stop := (e + d + 1) / 2
	h := randMessage(rng, f, stop-2)
	for f.Horner(h, a) == 0 {
		h[0] = f.Add(h[0], 1)
	}
	g := ring.Mul([]uint64{f.Neg(a), 1}, h)
	word := make([]uint64, e)
	for i := range word {
		if i != a {
			x := uint64(i)
			word[i] = f.Div(f.Horner(g, x), f.Mul(f.Sub(x, a), f.Sub(x, a)))
		}
	}
	_, v := ring.PartialXGCD(c.ps.Product(), c.ps.Interpolate(word), stop)
	if poly.Degree(v) != 2 || f.Horner(v, a) != 0 || f.Horner(ring.Derivative(v), a) != 0 {
		t.Fatalf("Euclid's locator %v is not c·(x−%d)²", v, a)
	}
	for _, workers := range []int{1, 4} {
		restore := par.SetParallelism(workers)
		_, _, _, err := c.Decode(word)
		restore()
		if !errors.Is(err, ErrDecodeFailure) {
			t.Fatalf("parallelism %d: Decode = %v, want ErrDecodeFailure", workers, err)
		}
	}
}
