package rs

// The decoder as it stood before the point set was hoisted into the Code
// (ISSUE 15), kept as the reference the production decoder is diffed
// against: nothing is cached, G0 and the interpolant are rebuilt from the
// points for every word, the Euclidean loop carries full cofactor
// arithmetic through DivMod/Mul/Sub, and the answer is re-encoded at every
// code point and compared with the received word position by position.
// The production decoder skips that re-encode on the strength of an
// identity (package comment); this file is what holds it to it.

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
// ErrDecodeFailure refusal (any other error fails the test outright).
type decodeOutcome struct {
	msg, corrected []uint64
	locs           []int
	failed         bool
}

func outcomeOf(t *testing.T, name string, msg, corrected []uint64, locs []int, err error) decodeOutcome {
	t.Helper()
	if err != nil && !errors.Is(err, ErrDecodeFailure) {
		t.Fatalf("%s: unexpected error kind: %v", name, err)
	}
	return decodeOutcome{msg, corrected, locs, err != nil}
}

func (o decodeOutcome) equal(p decodeOutcome) bool {
	return o.failed == p.failed && slices.Equal(o.msg, p.msg) &&
		slices.Equal(o.corrected, p.corrected) && slices.Equal(o.locs, p.locs)
}

// diffAgainstReference decodes one word three ways — Decode (when nothing
// is erased), a reused ErasurePlan, and the reference — and requires the
// same message, corrected word, error locations and error kind from all.
func diffAgainstReference(t *testing.T, name string, c *Code, rx []uint64, erased []int) decodeOutcome {
	t.Helper()
	m, cw, l, err := referenceDecode(c, rx, erased)
	want := outcomeOf(t, name+" (reference)", m, cw, l, err)
	plan, perr := c.ErasurePlan(erased)
	if perr != nil {
		if !errors.Is(perr, ErrDecodeFailure) || !want.failed {
			t.Fatalf("%s: ErasurePlan: %v, reference failed=%v", name, perr, want.failed)
		}
		return want
	}
	for rep := 0; rep < 2; rep++ { // the plan is reused: the second decode sees warm state
		m, cw, l, err = plan.Decode(rx)
		if got := outcomeOf(t, name+" (plan)", m, cw, l, err); !got.equal(want) {
			t.Fatalf("%s: ErasurePlan.Decode differs from the reference decoder:\n got failed=%v locs=%v\nwant failed=%v locs=%v",
				name, got.failed, got.locs, want.failed, want.locs)
		}
	}
	if len(erased) == 0 {
		m, cw, l, err = c.Decode(rx)
		if got := outcomeOf(t, name+" (Decode)", m, cw, l, err); !got.equal(want) {
			t.Fatalf("%s: Decode differs from the reference decoder:\n got failed=%v locs=%v\nwant failed=%v locs=%v",
				name, got.failed, got.locs, want.failed, want.locs)
		}
	}
	return want
}

func codeOver(t testing.TB, q uint64, e, d int) *Code {
	t.Helper()
	c, err := New(poly.NewRing(ff.Must(q)), ConsecutivePoints(e), d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDecodeMatchesReference is the seeded differential test of the
// hoisted decoder against referenceDecode.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	nttQ, _, err := ff.NTTPrime(1<<20, 1<<12)
	if err != nil {
		t.Fatal(err)
	}

	// Random shapes on both sides of poly's fastThreshold (64): small codes
	// take the Lagrange base alone, large ones the tree above it.
	for trial := 0; trial < 160; trial++ {
		e := 2 + rng.Intn(62)
		if trial%2 == 1 {
			e = 65 + rng.Intn(360)
		}
		d := rng.Intn(e)
		c := codeOver(t, nttQ, e, d)
		cw, err := c.Encode(randMessage(rng, c.Field(), d))
		if err != nil {
			t.Fatal(err)
		}
		budget := e - d - 1
		s := 0
		if trial%3 != 0 {
			s = rng.Intn(budget + 1)
		}
		radius := c.CorrectionRadiusWithErasures(s)
		nerr := rng.Intn(radius + 1)
		switch trial % 8 {
		case 5:
			nerr = radius // exactly at the radius
		case 6:
			nerr = min(radius+1, e-s) // one past it
		case 7:
			nerr = min(radius+1+rng.Intn(4), e-s)
		}
		rx, _, erased := corruptWord(rng, c, cw, nerr, s)
		name := fmt.Sprintf("trial %d e=%d d=%d errors=%d erasures=%d", trial, e, d, nerr, s)
		got := diffAgainstReference(t, name, c, rx, erased)
		if nerr <= radius && (got.failed || len(got.locs) != nerr) {
			t.Fatalf("%s: within the radius but failed=%v with %d locations", name, got.failed, len(got.locs))
		}
	}

	// Fixed corners on one mid-sized code.
	e, d := 200, 120
	c := codeOver(t, nttQ, e, d)
	cw, _ := c.Encode(randMessage(rng, c.Field(), d))
	corner := func(name string, rx []uint64, erased []int) decodeOutcome {
		return diffAgainstReference(t, name, c, rx, erased)
	}
	corner("all-zero word", make([]uint64, e), nil)
	corner("all-zero word with erasures", make([]uint64, e), []int{0, 7, 199})
	nearZero := make([]uint64, e)
	nearZero[3], nearZero[150] = 5, 9
	corner("zero codeword with two errors", nearZero, nil)
	corner("clean word", cw, nil)
	survivors := rng.Perm(e)
	corner("erasures down to d+1 survivors", cw, survivors[d+1:])
	corner("erasures down to d survivors", cw, survivors[d:])
	corner("duplicate erasure indices", cw, []int{4, 4, 9, 4})
	unreduced := append([]uint64(nil), cw...)
	for i := range unreduced {
		unreduced[i] += c.Field().Q * uint64(i%3) // same residues, not canonical
	}
	unreduced[11] += 3
	if got := corner("unreduced symbols", unreduced, []int{5}); got.failed || len(got.locs) != 1 || got.locs[0] != 11 {
		t.Fatalf("unreduced symbols: failed=%v locs=%v, want the one error at 11", got.failed, got.locs)
	}
	// A whole node's block of errors, as a lying node leaves them.
	block := append([]uint64(nil), cw...)
	for i := 40; i < 40+c.CorrectionRadius(); i++ {
		block[i] = c.Field().Add(block[i], 1)
	}
	corner("contiguous error block at the radius", block, nil)
	// x = 1 is an N-th root of unity for every transform size N: the
	// quotient's transform points must not include it. Alone, and inside a
	// whole first block (a lying node 0).
	atOne := append([]uint64(nil), cw...)
	atOne[1] = c.Field().Add(atOne[1], 7)
	if got := corner("error at x = 1", atOne, nil); got.failed || !slices.Equal(got.locs, []int{1}) {
		t.Fatalf("error at x = 1: failed=%v locs=%v", got.failed, got.locs)
	}
	first := append([]uint64(nil), cw...)
	for i := 0; i < c.CorrectionRadiusWithErasures(2); i++ {
		first[i] = c.Field().Add(first[i], uint64(1+i))
	}
	if got := corner("first block in error", first, []int{150, 151}); got.failed || len(got.locs) != c.CorrectionRadiusWithErasures(2) {
		t.Fatalf("first block in error: failed=%v with %d locations", got.failed, len(got.locs))
	}

	// GF(257): every nonzero element is a 256th root of unity, so over a
	// tree of 128 leaves the quotient's transform points — the odd 256th
	// roots — are the field's generators, 3 among them. A locator with a
	// root at x = 3 vanishes at a transform point and the quotient falls
	// back to Mul and DivMod; one with roots at 0, 1, 2, 4 (no generators)
	// does not. Both must be the reference's outcome, within the radius
	// and past it.
	for trial := 0; trial < 120; trial++ {
		e := 65 + rng.Intn(64)
		d := rng.Intn(e - 12)
		c := codeOver(t, 257, e, d)
		cw, _ := c.Encode(randMessage(rng, c.Field(), d))
		radius := c.CorrectionRadius()
		rx := append([]uint64(nil), cw...)
		positions := []int{0, 1, 2, 4}
		if trial%2 == 0 {
			positions = append([]int{3}, rng.Perm(e)[:rng.Intn(radius+3)]...)
		}
		for _, i := range positions {
			rx[i] = c.Field().Add(rx[i], 1+rng.Uint64()%256)
		}
		diffAgainstReference(t, fmt.Sprintf("GF(257) trial %d e=%d d=%d errors at %v", trial, e, d, positions), c, rx, nil)
	}

	// GF(97): the field is small enough that a word pushed past the
	// (erasure-shrunk) radius often lies within the radius of a different
	// codeword, and Gao returns that one — the miscorrection behind the
	// chaos seeds fixed in PR 14. Accepted or refused, the outcome must be
	// the reference's.
	// Past the radius the locator is whatever Euclid left, and its roots
	// may fall on erased points. An exact quotient rules that out (v then
	// divides the delivered points' G0), so such a word must be refused
	// and an erased position never opened as a root.
	miscorrected, refused, erasedRoots := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		e := 20 + rng.Intn(78)
		d := rng.Intn(e - 8)
		c := codeOver(t, 97, e, d)
		msg := randMessage(rng, c.Field(), d)
		cw, _ := c.Encode(msg)
		s := rng.Intn(e - d)
		radius := c.CorrectionRadiusWithErasures(s)
		nerr := min(radius+1+rng.Intn(3), e-s)
		rx, _, erased := corruptWord(rng, c, cw, nerr, s)
		got := diffAgainstReference(t, fmt.Sprintf("GF(97) trial %d e=%d d=%d errors=%d erasures=%d", trial, e, d, nerr, s), c, rx, erased)
		if plan, err := c.ErasurePlan(erased); err == nil && s > 0 {
			var vals []uint64
			for i, y := range rx {
				if !plan.mask[i] {
					vals = append(vals, y)
				}
			}
			_, v := c.ring.PartialXGCD(plan.ps.Product(), plan.ps.Interpolate(vals), (e-s+d+1)/2)
			if slices.ContainsFunc(erased, func(i int) bool { return c.ring.Eval(v, c.points[i]) == 0 }) {
				erasedRoots++
			}
		}
		switch {
		case got.failed:
			refused++
		case !poly.Equal(got.msg, msg):
			miscorrected++
		}
	}
	if miscorrected == 0 || refused == 0 || erasedRoots == 0 {
		t.Fatalf("GF(97) sweep saw %d miscorrections, %d refusals and %d locators with a root at an erased point; it must exercise all three",
			miscorrected, refused, erasedRoots)
	}
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
