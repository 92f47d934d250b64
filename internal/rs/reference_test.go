package rs

// The decoder as it stood before the point set was hoisted into the Code,
// kept as the reference the production decoder is diffed
// against: nothing is cached, G0 and the interpolant are rebuilt from the
// points for every word, the Euclidean loop carries full cofactor
// arithmetic through DivMod/Mul/Sub, and the answer is re-encoded at every
// code point and compared with the received word position by position.
// The production decoder skips that re-encode on the strength of an
// identity (package comment); decodeRows (table_test.go) is what holds
// it to it.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"camelot/internal/ff"
	"camelot/internal/poly"
)

func referenceDecode(c *Code, received []uint64, erased []int) (message, corrected []uint64, errorLocs []int, err error) {
	e := len(c.points)
	if len(received) != e {
		return nil, nil, nil, fmt.Errorf("rs: received word length %d, want %d", len(received), e)
	}
	var mask []bool
	if len(erased) > 0 {
		mask = make([]bool, e)
		for _, i := range erased {
			if i < 0 || i >= e {
				return nil, nil, nil, fmt.Errorf("rs: erasure index %d out of range [0,%d)", i, e)
			}
			mask[i] = true
		}
	}
	var pts, vals []uint64
	for i, x := range c.points {
		if mask == nil || !mask[i] {
			pts = append(pts, x)
			vals = append(vals, received[i])
		}
	}
	n := len(pts)
	if n < c.d+1 {
		return nil, nil, nil, fmt.Errorf("%w: %d symbols left, need %d", ErrDecodeFailure, n, c.d+1)
	}
	ring, f := c.ring, c.ring.Field()
	g0 := []uint64{1}
	for _, x := range pts {
		g0 = ring.Mul(g0, []uint64{f.Neg(x % f.Q), 1})
	}
	g1 := ring.Interpolate(pts, vals)
	if poly.Degree(g1) < 0 {
		return make([]uint64, c.d+1), make([]uint64, e), nil, nil
	}
	stop := (n + c.d + 1) / 2
	r0, r1 := poly.Trim(g0), poly.Trim(g1)
	v0, v1 := []uint64(nil), []uint64{1}
	for poly.Degree(r1) >= stop {
		q, rem := ring.DivMod(r0, r1)
		r0, r1 = r1, rem
		v0, v1 = v1, ring.Sub(v0, ring.Mul(q, v1))
	}
	if poly.Degree(v1) < 0 {
		return nil, nil, nil, fmt.Errorf("%w: degenerate error locator", ErrDecodeFailure)
	}
	p, r := ring.DivMod(r1, v1)
	if len(r) != 0 || poly.Degree(p) > c.d {
		return nil, nil, nil, ErrDecodeFailure
	}
	corrected = ring.EvalMany(p, c.points)
	di := 0
	for i := range corrected {
		if mask != nil && mask[i] {
			continue
		}
		if corrected[i] != vals[di]%f.Q {
			errorLocs = append(errorLocs, i)
		}
		di++
	}
	if radius := c.CorrectionRadiusWithErasures(e - n); len(errorLocs) > radius {
		return nil, nil, nil, fmt.Errorf("%w: %d errors exceed radius %d (%d erasures)",
			ErrDecodeFailure, len(errorLocs), radius, e-n)
	}
	message = make([]uint64, c.d+1)
	copy(message, p)
	return message, corrected, errorLocs, nil
}

// decodeOutcome is everything a decode reports; failed is true for an
// ErrDecodeFailure refusal (any other error fails the test; outcomeOf
// reports with Errorf, since decoders run on goroutines of their own).
type decodeOutcome struct {
	msg, corrected []uint64
	locs           []int
	failed         bool
}

func outcomeOf(t *testing.T, name string, msg, corrected []uint64, locs []int, err error) decodeOutcome {
	t.Helper()
	if err != nil && !errors.Is(err, ErrDecodeFailure) {
		t.Errorf("%s: unexpected error kind: %v", name, err)
	}
	return decodeOutcome{msg, corrected, locs, err != nil}
}

func (o decodeOutcome) equal(p decodeOutcome) bool {
	return o.failed == p.failed && slices.Equal(o.msg, p.msg) &&
		slices.Equal(o.corrected, p.corrected) && slices.Equal(o.locs, p.locs)
}

func codeOver(t testing.TB, q uint64, e, d int) *Code {
	t.Helper()
	c, err := New(poly.NewRing(ff.Must(q)), ConsecutivePoints(e), d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWarmDecodeAllocatesNoTree guards the hoisting: once a code exists, a
// decode at the decode_bound geometry (e=1157, d=756, a node's block of
// errors) must not rebuild the subproduct tree or the weights, which shows
// as allocating a small fraction of what building the code and decoding
// once does. The row at e=1535, d=1134 is decode_bound's geometry before
// its permanent declared the degree it has, where the byte ceiling below
// was measured.
func TestWarmDecodeAllocatesNoTree(t *testing.T) {
	for _, g := range []struct {
		e, d, lo, hi int
		// bytesBefore is what a warm decode of this word allocated before
		// the spectra were cached (ISSUE 24), when every tree node's
		// product came out of a fresh transform buffer; 0 where unmeasured.
		bytesBefore uint64
	}{{1157, 756, 145, 290, 0}, {1535, 1134, 192, 384, 560_909}} {
		t.Run(fmt.Sprintf("e=%d", g.e), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			c := newTestCode(t, g.e, g.d)
			ring := c.ring
			cw, err := c.Encode(randMessage(rng, c.Field(), g.d))
			if err != nil {
				t.Fatal(err)
			}
			rx := append([]uint64(nil), cw...)
			for i := g.lo; i < g.hi; i++ {
				rx[i] = c.Field().Add(rx[i], 1+rng.Uint64()%(c.Field().Q-1))
			}
			decode := func(c *Code) {
				if _, _, locs, err := c.Decode(rx); err != nil || len(locs) != g.hi-g.lo {
					t.Fatalf("decode: err=%v, %d locations", err, len(locs))
				}
			}
			warm := testing.AllocsPerRun(5, func() { decode(c) })
			cold := testing.AllocsPerRun(5, func() {
				fresh, err := New(ring, c.points, g.d)
				if err != nil {
					t.Fatal(err)
				}
				decode(fresh)
			})
			t.Logf("allocations per decode: warm %.0f, cold (New + decode) %.0f", warm, cold)
			if warm > cold/3 {
				t.Fatalf("a warm decode makes %.0f allocations, a cold New+decode %.0f: the decode is rebuilding per-code state", warm, cold)
			}
			const runs = 10
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				decode(c)
			}
			runtime.ReadMemStats(&m1)
			perDecode := (m1.TotalAlloc - m0.TotalAlloc) / runs
			t.Logf("bytes per warm decode: %d (ceiling %d)", perDecode, g.bytesBefore)
			if g.bytesBefore > 0 && perDecode > g.bytesBefore {
				t.Fatalf("a warm decode allocates %d bytes, more than the %d it did before", perDecode, g.bytesBefore)
			}
		})
	}
}
