package rs

import (
	"errors"
	"math/rand"
	"testing"

	"camelot/internal/ff"
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

func TestEncodeDecodeClean(t *testing.T) {
	for _, size := range []struct{ e, d int }{{8, 3}, {64, 20}, {257, 100}, {1024, 500}} {
		c := newTestCode(t, size.e, size.d)
		rng := rand.New(rand.NewSource(int64(size.e)))
		msg := randMessage(rng, c.Field(), size.d)
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, corrected, locs, err := c.Decode(cw)
		if err != nil {
			t.Fatalf("e=%d d=%d: clean decode failed: %v", size.e, size.d, err)
		}
		if len(locs) != 0 {
			t.Fatalf("clean decode reported errors at %v", locs)
		}
		if !poly.Equal(got, msg) {
			t.Fatal("decoded message differs")
		}
		for i := range cw {
			if corrected[i] != cw[i] {
				t.Fatal("corrected codeword differs from transmitted")
			}
		}
	}
}

func TestDecodeAtFullRadius(t *testing.T) {
	const e, d = 101, 40 // radius = 30
	c := newTestCode(t, e, d)
	rng := rand.New(rand.NewSource(99))
	msg := randMessage(rng, c.Field(), d)
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	radius := c.CorrectionRadius()
	if radius != 30 {
		t.Fatalf("radius = %d, want 30", radius)
	}
	for _, nerr := range []int{1, 5, radius} {
		rx := make([]uint64, e)
		copy(rx, cw)
		locs := rng.Perm(e)[:nerr]
		for _, i := range locs {
			rx[i] = (rx[i] + 1 + rng.Uint64()%(c.Field().Q-1)) % c.Field().Q
		}
		got, _, reported, err := c.Decode(rx)
		if err != nil {
			t.Fatalf("decode with %d errors failed: %v", nerr, err)
		}
		if !poly.Equal(got, msg) {
			t.Fatalf("decode with %d errors returned wrong message", nerr)
		}
		if len(reported) != nerr {
			t.Fatalf("reported %d error locations, want %d", len(reported), nerr)
		}
		want := make(map[int]bool, nerr)
		for _, i := range locs {
			want[i] = true
		}
		for _, i := range reported {
			if !want[i] {
				t.Fatalf("reported spurious error location %d", i)
			}
		}
	}
}

func TestDecodeBeyondRadiusFails(t *testing.T) {
	const e, d = 64, 30 // radius 16
	c := newTestCode(t, e, d)
	rng := rand.New(rand.NewSource(5))
	msg := randMessage(rng, c.Field(), d)
	cw, _ := c.Encode(msg)
	rx := make([]uint64, e)
	copy(rx, cw)
	// Corrupt well beyond the radius with random garbage: decoding must
	// either error or (with negligible probability) return some codeword —
	// but never silently return the wrong message as if clean.
	for _, i := range rng.Perm(e)[:40] {
		rx[i] = rng.Uint64() % c.Field().Q
	}
	got, _, _, err := c.Decode(rx)
	if err == nil && poly.Equal(got, msg) {
		t.Fatal("decode claimed success with original message despite 40 corruptions (should be impossible)")
	}
	if err != nil && !errors.Is(err, ErrDecodeFailure) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

func TestDecodeShortMessagePadding(t *testing.T) {
	// Message shorter than d+1: decoder must return padded length d+1.
	c := newTestCode(t, 32, 10)
	msg := []uint64{1, 2, 3}
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := c.Decode(cw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 {
		t.Fatalf("decoded length %d, want 11", len(got))
	}
	if !poly.Equal(got, msg) {
		t.Fatal("decoded message differs")
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

func TestPropertyRandomErrorPatterns(t *testing.T) {
	// Property: for random messages and random error patterns within the
	// radius, decode always recovers message and exact error locations.
	const e, d = 80, 25
	c := newTestCode(t, e, d)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		msg := randMessage(rng, c.Field(), d)
		cw, _ := c.Encode(msg)
		nerr := rng.Intn(c.CorrectionRadius() + 1)
		rx := make([]uint64, e)
		copy(rx, cw)
		lset := map[int]bool{}
		for _, i := range rng.Perm(e)[:nerr] {
			delta := 1 + rng.Uint64()%(c.Field().Q-1)
			rx[i] = c.Field().Add(rx[i], delta)
			lset[i] = true
		}
		got, _, locs, err := c.Decode(rx)
		if err != nil {
			t.Fatalf("trial %d (%d errors): %v", trial, nerr, err)
		}
		if !poly.Equal(got, msg) {
			t.Fatalf("trial %d: wrong message", trial)
		}
		if len(locs) != len(lset) {
			t.Fatalf("trial %d: reported %d locations, want %d", trial, len(locs), len(lset))
		}
		for _, i := range locs {
			if !lset[i] {
				t.Fatalf("trial %d: spurious location %d", trial, i)
			}
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

func TestDecodeZeroCodeword(t *testing.T) {
	c := newTestCode(t, 32, 10)
	// All-zero received word: the zero message, no errors.
	msg, corrected, locs, err := c.Decode(make([]uint64, 32))
	if err != nil {
		t.Fatal(err)
	}
	if poly.Degree(msg) != -1 || len(locs) != 0 {
		t.Fatalf("zero word: msg=%v locs=%v", msg, locs)
	}
	for _, v := range corrected {
		if v != 0 {
			t.Fatal("corrected word not zero")
		}
	}
	// Zero codeword with a few corruptions still decodes to zero.
	rx := make([]uint64, 32)
	rx[3], rx[17] = 5, 9
	msg, _, locs, err = c.Decode(rx)
	if err != nil {
		t.Fatal(err)
	}
	if poly.Degree(msg) != -1 {
		t.Fatalf("corrupted zero word decoded to %v", msg)
	}
	if len(locs) != 2 {
		t.Fatalf("error locations = %v, want 2", locs)
	}
}
