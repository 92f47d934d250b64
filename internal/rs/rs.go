// Package rs implements the nonsystematic Reed–Solomon code of paper §2.3:
// a message (p_0,...,p_d) is encoded as the evaluations of its polynomial
// at the e points 0, 1, ..., e-1 — the protocol's grid, and the only
// point set a Code accepts — and decoded, in the presence of up to
// ⌊(e-d-1)/2⌋ corrupted symbols, with Gao's extended-Euclidean decoder.
//
// The decoder additionally reports *which* positions were corrupted, which
// is how a Camelot node identifies the Knights that Morgana enchanted
// (paper §1.3, step 2).
//
// A decode is five steps — interpolate, partial Euclid, exact quotient
// beside the locator roots, open — against state that depends on the
// evaluation points alone and belongs to the Code (and to an ErasurePlan,
// for a shortened point set): the subproduct tree with its node spectra,
// the interpolation weights and the spectrum of G0, built once. The corrected
// word is never re-encoded. Gao's stop leaves g = u·G0 + v·G1 with
// G0(x_i) = 0 and G1(x_i) = r_i at every delivered point, and the message
// is the exact quotient p = g/v, so
//
//	p(x_i)·v(x_i) = g(x_i) = v(x_i)·r_i,   hence p(x_i) = r_i wherever v(x_i) ≠ 0:
//
// the codeword can differ from the received word only at roots of the
// locator v (degree at most the number of errors). And because u and v
// are coprime, v | g = u·G0 + v·G1 makes v a divisor of the squarefree G0:
// its roots are simple, they are delivered points, and u vanishes at none
// of them. Differentiating p·v = u·G0 + v·G1 at such a root gives
//
//	p(x_i)·v'(x_i) = u(x_i)·G0'(x_i) + v'(x_i)·r_i,   hence p(x_i) = r_i + u(x_i)·G0'(x_i)/v'(x_i) ≠ r_i:
//
// every root of v is an error, and its corrected symbol costs two Horner
// chains of degree at most the number of errors — G0'(x_i) is the
// reciprocal of an interpolation weight — where evaluating p costs one of
// degree d. p itself is evaluated only at erased positions.
//
// The roots are found by walking the grid: for v of degree t the forward
// differences Δ^j v(x), j ≤ t, step to x+1 as Δ^j v(x+1) = Δ^j v(x) +
// Δ^(j+1) v(x), t additions and no multiplication per point. Seeded from
// v(0..t) by Horner and t(t+1)/2 subtractions, the table gives v at all e
// points for about e·t additions; erased points are stepped over, not read.
package rs

import (
	"errors"
	"fmt"

	"camelot/internal/ff"
	"camelot/internal/par"
	"camelot/internal/poly"
)

// ErrDecodeFailure is returned when the received word is farther from the
// code than the unique-decoding radius, so no codeword can be recovered.
var ErrDecodeFailure = errors.New("rs: received word beyond unique-decoding radius")

// Code is a Reed–Solomon code of length e over the points 0..e-1 for
// messages of degree at most d (that is, d+1 symbols).
type Code struct {
	ring   *poly.Ring
	points []uint64
	d      int
	// ps is what encoding and decoding need of the points alone: their
	// subproduct tree, whose root is Gao's G0 = Π (x - x_i), and the
	// interpolation weights.
	ps *poly.PointSet
}

// New constructs a code over the given ring with message degree bound d
// (message length d+1). points must be ConsecutivePoints(e), e ≤ q: the
// grid is what the locator's forward differences walk.
func New(ring *poly.Ring, points []uint64, d int) (*Code, error) {
	e := len(points)
	if d < 0 || d+1 > e {
		return nil, fmt.Errorf("rs: need d+1 <= e, got d=%d e=%d", d, e)
	}
	if uint64(e) > ring.Field().Q {
		return nil, fmt.Errorf("rs: length %d exceeds field size %d", e, ring.Field().Q)
	}
	for i, x := range points {
		if x != uint64(i) {
			return nil, fmt.Errorf("rs: evaluation points must be 0..%d, got %d at position %d", e-1, x, i)
		}
	}
	return &Code{ring: ring, points: points, d: d, ps: ring.NewPointSet(points)}, nil
}

// ConsecutivePoints returns the canonical Camelot point set 0..e-1.
func ConsecutivePoints(e int) []uint64 {
	pts := make([]uint64, e)
	for i := range pts {
		pts[i] = uint64(i)
	}
	return pts
}

// Footprint returns the bytes the code keeps alive — O(e log e) field
// elements, nearly all of them the subproduct tree — for callers that
// cache codes under a memory budget.
func (c *Code) Footprint() int { return c.ps.Footprint() }

// CorrectionRadius returns the number of symbol errors the decoder is
// guaranteed to correct: ⌊(e-d-1)/2⌋.
func (c *Code) CorrectionRadius() int { return (len(c.points) - c.d - 1) / 2 }

// CorrectionRadiusWithErasures returns the number of symbol *errors* the
// decoder is guaranteed to correct when s symbols are additionally known
// to be erased: ⌊(e-s-d-1)/2⌋. Equivalently, a received word decodes
// whenever 2·errors + erasures ≤ e-d-1. Negative means even the erasures
// alone exceed what the code can absorb.
func (c *Code) CorrectionRadiusWithErasures(s int) int {
	n := len(c.points) - s - c.d - 1
	if n < 0 {
		return -((-n + 1) / 2) // floor division: Go's / truncates toward zero
	}
	return n / 2
}

// Encode evaluates the message polynomial at every code point.
// The message may have fewer than d+1 symbols (high coefficients zero).
func (c *Code) Encode(message []uint64) ([]uint64, error) {
	if len(message) > c.d+1 {
		return nil, fmt.Errorf("rs: message length %d exceeds d+1 = %d", len(message), c.d+1)
	}
	return c.ps.Eval(message), nil
}

// Decode recovers the message polynomial from a received word, correcting
// up to CorrectionRadius() corrupted symbols. It returns the message
// coefficients (length d+1, trailing zeros included), the corrected
// codeword, and the indices at which the received word disagreed with it.
//
// Gao's algorithm (paper §2.3): interpolate G1 through the received word;
// run the extended Euclidean algorithm on (G0, G1) stopping at degree
// < (e+d+1)/2; the quotient G/V is the message iff the division is exact.
func (c *Code) Decode(received []uint64) (message, corrected []uint64, errorLocs []int, err error) {
	if len(received) != len(c.points) {
		return nil, nil, nil, fmt.Errorf("rs: received word length %d, want %d", len(received), len(c.points))
	}
	return c.decodeOver(c.ps, received, nil)
}

// DecodeErasures decodes a received word in which the symbols at the
// listed positions are known to be missing (erasures): their values in
// received are ignored rather than treated as possible errors. The
// decoder restricts Gao's algorithm to the surviving positions, which
// doubles the budget an erased symbol gets relative to an error:
// decoding succeeds whenever 2·errors + erasures ≤ e-d-1.
//
// errorLocs reports only *content* errors among the delivered symbols;
// erased positions never appear in it (they are faults of delivery, not
// of the sender's word). The corrected codeword is full length — erased
// positions are filled in from the recovered polynomial. Duplicate
// erasure indices are tolerated; out-of-range indices are rejected.
//
// DecodeErasures is the one-shot form; callers decoding many words
// against the same erasure set (one per prime and coordinate, say)
// should build an ErasurePlan once and reuse it.
func (c *Code) DecodeErasures(received []uint64, erased []int) (message, corrected []uint64, errorLocs []int, err error) {
	plan, err := c.ErasurePlan(erased)
	if err != nil {
		return nil, nil, nil, err
	}
	return plan.Decode(received)
}

// ErasurePlan is a precomputed decoding context for one erasure set:
// the erasure mask and the surviving evaluation points with their
// subproduct tree and interpolation weights — everything about the
// erasures that does not depend on the received word. Plans are
// immutable and safe for concurrent Decode calls, so one plan can serve
// every (decoder, prime, coordinate) of a run that lost the same senders.
type ErasurePlan struct {
	c    *Code
	mask []bool         // nil when nothing is erased
	ps   *poly.PointSet // the surviving points; the code's own set when nothing is erased
}

// ErasurePlan validates the erasure set and precomputes the shortened
// decoding context. An erasure set leaving fewer than d+1 symbols is
// undecodable and fails here, with ErrDecodeFailure, before any word
// is seen.
func (c *Code) ErasurePlan(erased []int) (*ErasurePlan, error) {
	e := len(c.points)
	if len(erased) == 0 {
		return &ErasurePlan{c: c, ps: c.ps}, nil
	}
	mask := make([]bool, e)
	s := 0
	for _, i := range erased {
		if i < 0 || i >= e {
			return nil, fmt.Errorf("rs: erasure index %d out of range [0,%d)", i, e)
		}
		if !mask[i] {
			mask[i] = true
			s++
		}
	}
	if e-s < c.d+1 {
		return nil, fmt.Errorf("%w: %d erasures leave %d symbols, need %d for degree bound %d",
			ErrDecodeFailure, s, e-s, c.d+1, c.d)
	}
	pts := make([]uint64, 0, e-s)
	for i, x := range c.points {
		if !mask[i] {
			pts = append(pts, x)
		}
	}
	return &ErasurePlan{c: c, mask: mask, ps: c.ring.NewPointSet(pts)}, nil
}

// Decode runs the erasure-aware Gao decoder against one received word;
// see DecodeErasures for the contract.
func (p *ErasurePlan) Decode(received []uint64) (message, corrected []uint64, errorLocs []int, err error) {
	c := p.c
	e := len(c.points)
	if len(received) != e {
		return nil, nil, nil, fmt.Errorf("rs: received word length %d, want %d", len(received), e)
	}
	vals := received
	if p.mask != nil {
		vals = make([]uint64, 0, p.ps.Len())
		for i, v := range received {
			if !p.mask[i] {
				vals = append(vals, v)
			}
		}
	}
	return c.decodeOver(p.ps, vals, p.mask)
}

// decodeOver runs Gao's decoder on the (possibly erasure-shortened) code
// over the point set ps: vals are the received symbols at its points, and
// mask (nil when nothing is erased) marks the erased positions of the
// full-length code so the corrected word and error locations can be
// expressed in full-length coordinates.
//
// By the identities in the package comment the corrected word is the
// received word except at roots of the locator v and at erased positions,
// so only those are computed; a clean word (no Euclidean step, constant
// v) computes nothing. The outcome — refusals beyond the radius included —
// is what re-encoding and diffing every position would give.
func (c *Code) decodeOver(ps *poly.PointSet, vals []uint64, mask []bool) (message, corrected []uint64, errorLocs []int, err error) {
	e := len(c.points)
	n := ps.Len()
	g1 := ps.Interpolate(vals)
	u, v := c.ring.PartialXGCD(ps.Product(), g1, (n+c.d+1)/2)
	if poly.Degree(v) < 0 {
		return nil, nil, nil, fmt.Errorf("%w: degenerate error locator", ErrDecodeFailure)
	}
	p, corrected, errorLocs, ok := c.tail(ps, u, v, g1, vals, mask)
	if !ok {
		return nil, nil, nil, ErrDecodeFailure
	}
	if radius := c.CorrectionRadiusWithErasures(e - n); len(errorLocs) > radius {
		// The Euclidean stop produced a "codeword" farther away than the
		// radius — with that many errors uniqueness is void; refuse.
		return nil, nil, nil, fmt.Errorf("%w: %d errors exceed radius %d (%d erasures)",
			ErrDecodeFailure, len(errorLocs), radius, e-n)
	}
	message = make([]uint64, c.d+1)
	copy(message, p)
	return message, corrected, errorLocs, nil
}

// tail is the decode after Euclid: the quotient beside the locator, which
// depend on (u, v) alone, then open — only once the quotient has proved
// the division exact (ok), because beyond the radius v need not divide
// G0 and v' may vanish at one of its roots.
func (c *Code) tail(ps *poly.PointSet, u, v, g1, vals []uint64, mask []bool) (p, corrected []uint64, errorLocs []int, ok bool) {
	var locator []uint64 // v at the delivered points; nil when v has no roots
	par.Do(func() { p, ok = ps.Quotient(u, v, g1, c.d) }, func() {
		if poly.Degree(v) > 0 {
			locator = locate(c.ring, v, len(c.points), mask)
		}
	})
	if !ok {
		return nil, nil, nil, false
	}
	corrected, errorLocs = c.open(ps, p, u, v, locator, vals, mask)
	return p, corrected, errorLocs, true
}

// open is the decode's last step: the corrected word and the positions at
// which it differs from the delivered symbols, given the message p, the
// cofactors and the locator's values at the delivered points (nil when v
// is constant). By the identities of the package comment only the roots
// of v — every one of them an error — and the erased positions are
// computed: the first from u and v', the second from p.
func (c *Code) open(ps *poly.PointSet, p, u, v, locator, vals []uint64, mask []bool) (corrected []uint64, errorLocs []int) {
	f := c.ring.Field()
	corrected = make([]uint64, len(c.points))
	var rootAt, erased []int // the roots' indices into vals; the erased positions
	di := 0                  // index into the delivered symbols
	for i := range corrected {
		if mask != nil && mask[i] {
			erased = append(erased, i)
			continue
		}
		if locator != nil && locator[di] == 0 {
			errorLocs, rootAt = append(errorLocs, i), append(rootAt, di)
		}
		corrected[i] = vals[di] % f.Q
		di++
	}
	if len(errorLocs) > 0 {
		xs := c.pointsAt(errorLocs)
		var uAt, den []uint64
		par.Do(func() { uAt = c.ring.EvalEach(u, xs) }, func() { den = c.ring.EvalEach(c.ring.Derivative(v), xs) })
		w := ps.InvWeights()
		for j, di := range rootAt {
			den[j] = f.Mul(den[j], w[di]) // v'(x_i)/G0'(x_i), nonzero at a simple root
		}
		f.BatchInv(den)
		for j, i := range errorLocs {
			corrected[i] = f.Add(corrected[i], f.Mul(uAt[j], den[j]))
		}
	}
	if len(erased) > 0 {
		for j, y := range c.ring.EvalMany(p, c.pointsAt(erased)) {
			corrected[erased[j]] = y
		}
	}
	return corrected, errorLocs
}

// locate returns v at the unerased points of 0..e-1 (mask nil: all of
// them), in order, by the forward differences of the package comment.
func locate(r *poly.Ring, v []uint64, e int, mask []bool) []uint64 {
	f := r.Field()
	t := poly.Degree(v)
	diff := r.EvalEach(v, ConsecutivePoints(t+1))
	for j := 1; j <= t; j++ { // level j: diff[i] = Δ^j v(i-j) for i ≥ j
		for i := t; i >= j; i-- {
			diff[i] = f.Sub(diff[i], diff[i-1])
		}
	}
	out := make([]uint64, 0, e)
	for x := range e {
		if mask == nil || !mask[x] {
			out = append(out, diff[0])
		}
		f.AddVec(diff[:t], diff[:t], diff[1:])
	}
	return out
}

// pointsAt returns the evaluation points at the given positions.
func (c *Code) pointsAt(positions []int) []uint64 {
	xs := make([]uint64, len(positions))
	for j, i := range positions {
		xs[j] = c.points[i]
	}
	return xs
}

// Verify spot-checks a putative message against an oracle for codeword
// symbols: it draws one Camelot verification equation (paper eq. (2)) at
// the given point x0, comparing oracle(x0) with Horner evaluation of the
// message. A mismatch proves the message is not the oracle's polynomial;
// agreement is correct with probability >= 1 - d/q for uniform x0.
func (c *Code) Verify(message []uint64, x0 uint64, oracle func(uint64) (uint64, error)) (bool, error) {
	want, err := oracle(x0)
	if err != nil {
		return false, fmt.Errorf("rs: verification oracle: %w", err)
	}
	f := c.ring.Field()
	return f.Horner(message, x0) == want%f.Q, nil
}

// Field returns the underlying coefficient field.
func (c *Code) Field() ff.Field { return c.ring.Field() }
