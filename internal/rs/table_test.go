package rs

// One table, decodeRows, holds every decode path of the package to
// referenceDecode: each row is a set of received words that Decode,
// DecodeErasures and a reused ErasurePlan must decode exactly as the
// reference does — message, corrected word, error locations and
// refusal — at parallelism 1 and 4. The forward-difference locator is
// held the same way to PointSet.Eval. A new decode path lands as one row.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"camelot/internal/ff"
	"camelot/internal/par"
	"camelot/internal/poly"
)

// rsCase is one received word, or, when v is set, one locator
// polynomial for locate over the points of 0..e-1 that mask leaves.
type rsCase struct {
	name        string
	c           *Code
	msg, cw, rx []uint64 // the message sent, its codeword, the word received
	erased      []int
	errs        []int // the positions in error, sorted
	within      bool  // the word must decode to msg and cw, reporting exactly errs
	v           []uint64
	e           int
	mask        []bool
}

// decodeRow is a set of cases. verdict, if set, judges their reference
// outcomes together; shared decodes each word from four goroutines on
// one code and one erasure plan at parallelism 4.
type decodeRow struct {
	name, test string // test runs the row; "" is TestDecodeMatchesReference
	cases      func(t *testing.T, rng *rand.Rand) []rsCase
	verdict    func(t *testing.T, cases []rsCase, outcomes []decodeOutcome)
	shared     bool
}

// sent encodes msg (random of degree d when nil), puts nerr symbol errors
// and s erasures at random positions, and says whether the word is within
// the erasure-shrunk radius.
func sent(rng *rand.Rand, c *Code, msg []uint64, nerr, s int) rsCase {
	if msg == nil {
		msg = randMessage(rng, c.Field(), c.d)
	}
	cw, _ := c.Encode(msg)
	rx, locs, erased := corruptWord(rng, c, cw, nerr, s)
	return rsCase{name: fmt.Sprintf("e=%d d=%d errors=%d erasures=%d", len(cw), c.d, nerr, s), c: c, msg: msg, cw: cw,
		rx: rx, erased: erased, errs: slices.Sorted(maps.Keys(locs)), within: 2*nerr+s <= len(cw)-c.d-1}
}

// block is the codeword of a random message with the symbols lo..hi-1
// in error, as a lying node leaves them, and the given erasures.
func block(rng *rand.Rand, c *Code, lo, hi int, erased []int) rsCase {
	k := sent(rng, c, nil, 0, 0)
	k.name, k.erased, k.errs = fmt.Sprintf("block %d..%d erased %v", lo, hi, erased), erased, nil
	for i := lo; i < hi; i++ {
		k.rx[i] = c.Field().Add(k.rx[i], uint64(1+i))
		k.errs = append(k.errs, i)
	}
	return k
}

// decodeAll decodes the word every way the package can: Decode when
// nothing is erased, DecodeErasures (a plan of its own), and the given
// plan, or its build's refusal.
func (k rsCase) decodeAll(t *testing.T, plan *ErasurePlan, perr error) []decodeOutcome {
	t.Helper()
	var out []decodeOutcome
	if len(k.erased) == 0 {
		m, cw, l, err := k.c.Decode(k.rx)
		out = append(out, outcomeOf(t, k.name+" (Decode)", m, cw, l, err))
	}
	m, cw, l, err := k.c.DecodeErasures(k.rx, k.erased)
	out = append(out, outcomeOf(t, k.name+" (DecodeErasures)", m, cw, l, err))
	if perr != nil {
		return append(out, outcomeOf(t, k.name+" (ErasurePlan)", nil, nil, nil, perr))
	}
	m, cw, l, err = plan.Decode(k.rx)
	return append(out, outcomeOf(t, k.name+" (plan)", m, cw, l, err))
}

// check diffs the case against its reference at parallelism 1 and 4 and
// returns the reference's outcome. A word within the radius has a known
// answer, the message, codeword and errors sent; referenceDecode decides
// the others.
func (k rsCase) check(t *testing.T, shared bool) decodeOutcome {
	t.Helper()
	if k.v != nil {
		if got := locate(k.c.ring, k.v, k.e, k.mask); !slices.Equal(got, k.c.ring.EvalMany(k.v, unerased(k.e, k.mask))) {
			t.Fatalf("%s: the forward-difference locator differs from PointSet.Eval", k.name)
		}
		return decodeOutcome{}
	}
	want := decodeOutcome{msg: append(slices.Clone(k.msg), make([]uint64, k.c.d+1-len(k.msg))...), corrected: k.cw, locs: k.errs}
	if !k.within {
		m, cw, l, err := referenceDecode(k.c, k.rx, k.erased)
		want = outcomeOf(t, k.name+" (reference)", m, cw, l, err)
	}
	diff := func(workers int, outs []decodeOutcome) {
		for i, got := range outs {
			if !got.equal(want) {
				t.Errorf("%s, parallelism %d: decoder %d differs from the reference:\n got failed=%v locs=%v\nwant failed=%v locs=%v",
					k.name, workers, i, got.failed, got.locs, want.failed, want.locs)
			}
		}
	}
	plan, perr := k.c.ErasurePlan(k.erased) // warm at parallelism 4
	for _, workers := range []int{1, 4} {
		restore := par.SetParallelism(workers)
		diff(workers, k.decodeAll(t, plan, perr))
		if cw, _ := k.c.Encode(k.msg); k.within && !slices.Equal(k.cw, cw) {
			t.Errorf("%s, parallelism %d: Encode differs from the reference's corrected word", k.name, workers)
		}
		if shared && workers == 4 {
			var wg sync.WaitGroup
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					diff(workers, k.decodeAll(t, plan, perr))
				}()
			}
			wg.Wait()
		}
		restore()
	}
	if t.Failed() {
		t.FailNow()
	}
	return want
}

var nttQ, q61 = func() (uint64, uint64) {
	a, _, err := ff.NTTPrime(1<<20, 1<<12)
	if err != nil {
		panic(err)
	}
	b, _, err := ff.NTTPrime(1<<61, 4096)
	if err != nil {
		panic(err)
	}
	return a, b
}()

var decodeRows = []decodeRow{
	// Random shapes on both sides of poly's fastThreshold (64): small codes
	// take the Lagrange base alone, large ones the tree above it; errors
	// within the radius, at it, one past it and further.
	{name: "random", cases: func(t *testing.T, rng *rand.Rand) (cases []rsCase) {
		for trial := range 160 {
			e := []int{2 + rng.Intn(62), 65 + rng.Intn(360)}[trial%2]
			c := codeOver(t, nttQ, e, rng.Intn(e))
			s := 0
			if trial%3 != 0 {
				s = rng.Intn(e - c.d)
			}
			radius := c.CorrectionRadiusWithErasures(s)
			nerr := []int{rng.Intn(radius + 1), radius, min(radius+1, e-s), min(radius+1+rng.Intn(4), e-s)}[max(0, trial%8-4)]
			cases = append(cases, sent(rng, c, nil, nerr, s))
		}
		return cases
	}},
	// Fixed corners on one mid-sized code. x = 1 is an N-th root of unity
	// for every transform size N: the quotient's transform points must
	// not include it, alone or inside a lying node 0's block.
	{name: "corners", cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		c := codeOver(t, nttQ, 200, 120)
		zero, clean := make([]uint64, 121), sent(rng, c, nil, 0, 0)
		unreduced := block(rng, c, 11, 12, []int{5})
		for i := range unreduced.rx {
			unreduced.rx[i] += c.Field().Q * uint64(i%3) // same residues, not canonical
		}
		survivors, erasedZero := rng.Perm(200), sent(rng, c, zero, 0, 3)
		erasedZero.rx = make([]uint64, 200)
		return []rsCase{
			sent(rng, c, zero, 0, 0), erasedZero, sent(rng, c, zero, 2, 0), clean, unreduced,
			erasing(clean, survivors[121:], true), erasing(clean, survivors[120:], false), erasing(clean, []int{4, 4, 9, 4}, true),
			block(rng, c, 40, 40+c.CorrectionRadius(), nil),
			block(rng, c, 1, 2, nil),
			block(rng, c, 0, c.CorrectionRadiusWithErasures(2), []int{150, 151}),
		}
	}},
	// GF(257): every nonzero element is a 256th root of unity, so over a
	// tree of 128 leaves the quotient's transform points — the odd 256th
	// roots — are the field's generators, 3 among them. A locator with a
	// root at x = 3 vanishes at a transform point and the quotient falls
	// back to Mul and DivMod; one with roots at 0, 1, 2, 4 (no generators)
	// does not. Both must be the reference's outcome, within the radius
	// and past it.
	{name: "GF(257) transform points", cases: func(t *testing.T, rng *rand.Rand) (cases []rsCase) {
		for trial := range 120 {
			e := 65 + rng.Intn(64)
			k := sent(rng, codeOver(t, 257, e, rng.Intn(e-12)), nil, 0, 0)
			positions := []int{0, 1, 2, 4}
			if trial%2 == 0 {
				positions = append([]int{3}, rng.Perm(e)[:rng.Intn(k.c.CorrectionRadius()+3)]...)
			}
			for _, i := range positions {
				k.rx[i] = k.c.Field().Add(k.rx[i], 1+rng.Uint64()%256)
			}
			k.name, k.within = fmt.Sprintf("GF(257) e=%d d=%d errors at %v", e, k.c.d, positions), false
			cases = append(cases, k)
		}
		return cases
	}},
	// GF(97): a word pushed past the (erasure-shrunk) radius often lies
	// within the radius of another codeword, and Gao returns that one —
	// the miscorrection a lying node can cause in a small field. Accepted
	// or refused, the outcome must be the reference's. Past the radius the
	// locator is whatever Euclid left, and its roots may fall on erased
	// points; an exact quotient rules that out (v then divides the
	// delivered points' G0), so such a word must be refused and an erased
	// position never opened as a root. The sweep must see all three.
	{name: "GF(97) sweep", cases: func(t *testing.T, rng *rand.Rand) (cases []rsCase) {
		for range 300 {
			e := 20 + rng.Intn(78)
			c := codeOver(t, 97, e, rng.Intn(e-8))
			s := rng.Intn(e - c.d)
			cases = append(cases, sent(rng, c, nil, min(c.CorrectionRadiusWithErasures(s)+1+rng.Intn(3), e-s), s))
		}
		return cases
	}, verdict: func(t *testing.T, cases []rsCase, outcomes []decodeOutcome) {
		miscorrected, refused, erasedRoots := 0, 0, 0
		for i, k := range cases {
			if plan, err := k.c.ErasurePlan(k.erased); err == nil && len(k.erased) > 0 {
				var vals []uint64
				for i, y := range k.rx {
					if !plan.mask[i] {
						vals = append(vals, y)
					}
				}
				_, v := k.c.ring.PartialXGCD(plan.ps.Product(), plan.ps.Interpolate(vals), (len(k.rx)-len(k.erased)+k.c.d+1)/2)
				if slices.ContainsFunc(k.erased, func(i int) bool { return k.c.ring.Eval(v, k.c.points[i]) == 0 }) {
					erasedRoots++
				}
			}
			switch {
			case outcomes[i].failed:
				refused++
			case !poly.Equal(outcomes[i].msg, k.msg):
				miscorrected++
			}
		}
		if miscorrected == 0 || refused == 0 || erasedRoots == 0 {
			t.Fatalf("GF(97) sweep saw %d miscorrections, %d refusals and %d locators with a root at an erased point; it must exercise all three",
				miscorrected, refused, erasedRoots)
		}
	}},
	{name: "clean", test: "TestEncodeDecodeClean", cases: func(t *testing.T, rng *rand.Rand) (cases []rsCase) {
		for _, size := range [][2]int{{8, 3}, {64, 20}, {257, 100}, {1024, 500}} {
			cases = append(cases, sent(rng, newTestCode(t, size[0], size[1]), nil, 0, 0))
		}
		return cases
	}},
	{name: "full radius", test: "TestDecodeAtFullRadius", cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		c := newTestCode(t, 101, 40) // radius 30
		return []rsCase{sent(rng, c, nil, 1, 0), sent(rng, c, nil, 5, 0), sent(rng, c, nil, 30, 0)}
	}},
	// 40 symbols of random garbage, well past the radius 16.
	{name: "beyond radius", test: "TestDecodeBeyondRadiusFails", cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		k := sent(rng, newTestCode(t, 64, 30), nil, 0, 0)
		for _, i := range rng.Perm(64)[:40] {
			k.rx[i] = rng.Uint64() % k.c.Field().Q
		}
		k.within = false
		return []rsCase{k}
	}},
	// A message shorter than d+1 decodes padded to d+1.
	{name: "short message", test: "TestDecodeShortMessagePadding", cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		return []rsCase{sent(rng, newTestCode(t, 32, 10), []uint64{1, 2, 3}, 0, 0)}
	}},
	{name: "zero word", test: "TestDecodeZeroCodeword", cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		c, zero := newTestCode(t, 32, 10), make([]uint64, 11)
		return []rsCase{sent(rng, c, zero, 0, 0), sent(rng, c, zero, 2, 0)}
	}},
	{name: "random errors", test: "TestPropertyRandomErrorPatterns", cases: func(t *testing.T, rng *rand.Rand) (cases []rsCase) {
		c := newTestCode(t, 80, 25)
		for range 50 {
			cases = append(cases, sent(rng, c, nil, rng.Intn(c.CorrectionRadius()+1), 0))
		}
		return cases
	}},
	{name: "erasures within budget", test: "TestDecodeErasuresRecoversWithinBudget", cases: func(t *testing.T, rng *rand.Rand) (cases []rsCase) {
		c := newTestCode(t, 64, 20) // 2t + s <= 43
		for range 60 {
			s := rng.Intn(64 - 20)
			cases = append(cases, sent(rng, c, nil, rng.Intn(c.CorrectionRadiusWithErasures(s)+1), s))
		}
		return cases
	}},
	// e−d erasures leave fewer than d+1 symbols; 8 erasures shrink the
	// radius to 4, and 7 errors pass it.
	{name: "erasures beyond budget", test: "TestDecodeErasuresBeyondBudgetFails", cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		c := newTestCode(t, 32, 15)
		cases := []rsCase{sent(rng, c, nil, 0, 32-15)}
		for range 20 {
			cases = append(cases, sent(rng, c, nil, 7, 8))
		}
		return cases
	}},
	// One erasure set decoding many words, one error at 11 each; a plan
	// for e−d erasures fails at build, typed.
	{name: "plan reuse", test: "TestErasurePlanReuseMatchesOneShot", cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		c := newTestCode(t, 40, 12)
		cases := []rsCase{sent(rng, c, nil, 0, 40-12)}
		for range 20 {
			k := block(rng, c, 11, 12, []int{3, 7, 21, 22})
			for _, i := range k.erased {
				k.rx[i] = rng.Uint64() % c.Field().Q
			}
			cases = append(cases, k)
		}
		return cases
	}},
	// Interpolation up the code's subproduct tree forks onto par workers:
	// a small NTT prime, where Quotient falls back to Mul and DivMod, and
	// decode_bound's geometry and its earlier e=1535 over a 61-bit prime,
	// where it divides on the odd roots beside the locator; each word with
	// and without three erasures, 2·errors + erasures ≤ e−d−1.
	{name: "small-prime", test: "TestDecodeParallelMatchesSerial", shared: true, cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		return withErasures(sent(rng, newTestCode(t, 2048, 1500), nil, 200, 0))
	}},
	{name: "decode-bound", test: "TestDecodeParallelMatchesSerial", shared: true, cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		c, _, _, _ := decodeBoundWords(t)
		return withErasures(block(rng, c, 145, 290, nil))
	}},
	{name: "e=1535", test: "TestDecodeParallelMatchesSerial", shared: true, cases: func(t *testing.T, rng *rand.Rand) []rsCase {
		c, _, _, _ := blockErrorWords(t, 1535, 1134, 192, 384)
		return withErasures(block(rng, c, 192, 384, nil))
	}},
	// The forward-difference locator against PointSet.Eval over GF(97),
	// GF(257) and a 61-bit NTT prime, for every degree t from 1 to the
	// radius on codes of length 64, 257 (the whole of GF(257)), 1157 (the
	// decode_bound geometry) and 1535, and on the shortest grid e = t+1;
	// v has roots on the grid, and the masks erase some of them.
	{name: "locator", test: "TestConsecutiveLocatorMatchesEval", cases: func(t *testing.T, rng *rand.Rand) (cases []rsCase) {
		for _, q := range []uint64{97, 257, q61} {
			top := 0 // the largest radius of a code over this field
			for _, code := range [][2]int{{64, 1}, {257, 2}, {1157, 756}, {1535, 1134}} {
				e, radius := code[0], (code[0]-code[1]-1)/2
				if uint64(e) > q {
					continue
				}
				top = max(top, radius)
				pool := rng.Perm(e)[:radius] // v's roots come from here
				erasing := make([]bool, e)   // a third of the pool and some other points
				for _, i := range append(pool[:radius/3], rng.Perm(e)[:e/8]...) {
					erasing[i] = true
				}
				for _, mask := range [][]bool{nil, erasing} {
					for deg := 1; deg <= radius; deg++ {
						cases = append(cases, locatorCase(rng, q, e, deg, pool[:rng.Intn(deg+1)], mask))
					}
				}
			}
			for deg := 1; deg <= top; deg++ { // e = t+1
				mask := make([]bool, deg+1)
				mask[rng.Intn(deg+1)] = true
				roots := rng.Perm(deg + 1)[:rng.Intn(deg+1)]
				cases = append(cases, locatorCase(rng, q, deg+1, deg, roots, nil), locatorCase(rng, q, deg+1, deg, roots, mask))
			}
		}
		return cases
	}},
}

// erasing is the word k with the given erasures.
func erasing(k rsCase, erased []int, within bool) rsCase {
	k.name, k.erased, k.within = fmt.Sprintf("%s, %d erased", k.name, len(erased)), erased, within
	return k
}

// withErasures is the word, then the same word with three erasures.
func withErasures(k rsCase) []rsCase {
	erased := k
	erased.name, erased.erased = k.name+" erased", []int{3, 99, 1044}
	erased.errs = slices.DeleteFunc(slices.Clone(k.errs), func(i int) bool { return slices.Contains(erased.erased, i) })
	return []rsCase{k, erased}
}

// locatorCase is a locator of degree t over GF(q) with roots at the given
// grid points (and random other factors), for locate over the points of
// 0..e-1 that mask leaves.
func locatorCase(rng *rand.Rand, q uint64, e, t int, roots []int, mask []bool) rsCase {
	r := poly.NewRing(ff.Must(q))
	v := make([]uint64, t-len(roots)+1)
	for i := range v {
		v[i] = rng.Uint64() % q
	}
	v[len(v)-1] = 1 + rng.Uint64()%(q-1)
	for _, x := range roots {
		v = r.Mul(v, []uint64{r.Field().Neg(uint64(x) % q), 1})
	}
	return rsCase{name: fmt.Sprintf("GF(%d) e=%d t=%d roots %v erased %v", q, e, t, roots, mask != nil), c: &Code{ring: r}, v: v, e: e, mask: mask}
}

// unerased returns the points of 0..e-1 that mask (nil: none) leaves.
func unerased(e int, mask []bool) []uint64 {
	var pts []uint64
	for i := range e {
		if mask == nil || !mask[i] {
			pts = append(pts, uint64(i))
		}
	}
	return pts
}

// runDecode runs the rows whose test is the calling one.
func runDecode(t *testing.T) {
	ran := false
	for _, row := range decodeRows {
		if row.test != strings.TrimPrefix(t.Name(), "TestDecodeMatchesReference") {
			continue
		}
		ran = true
		t.Run(row.name, func(t *testing.T) {
			cases := row.cases(t, rand.New(rand.NewSource(15)))
			outcomes := make([]decodeOutcome, len(cases))
			for i, k := range cases {
				outcomes[i] = k.check(t, row.shared)
			}
			if row.verdict != nil {
				row.verdict(t, cases, outcomes)
			}
		})
	}
	if !ran {
		t.Fatalf("no row of decodeRows names %s", t.Name())
	}
}

// TestDecodeMatchesReference runs the rows no test of their own runs.
// The rows that predate the table run under the names of the tests they
// replaced, one of the functions below.
func TestDecodeMatchesReference(t *testing.T)             { runDecode(t) }
func TestEncodeDecodeClean(t *testing.T)                  { runDecode(t) }
func TestDecodeAtFullRadius(t *testing.T)                 { runDecode(t) }
func TestDecodeBeyondRadiusFails(t *testing.T)            { runDecode(t) }
func TestDecodeShortMessagePadding(t *testing.T)          { runDecode(t) }
func TestDecodeZeroCodeword(t *testing.T)                 { runDecode(t) }
func TestPropertyRandomErrorPatterns(t *testing.T)        { runDecode(t) }
func TestDecodeErasuresRecoversWithinBudget(t *testing.T) { runDecode(t) }
func TestDecodeErasuresBeyondBudgetFails(t *testing.T)    { runDecode(t) }
func TestErasurePlanReuseMatchesOneShot(t *testing.T)     { runDecode(t) }
func TestDecodeParallelMatchesSerial(t *testing.T)        { runDecode(t) }
func TestConsecutiveLocatorMatchesEval(t *testing.T)      { runDecode(t) }

// FuzzDecode is the table on one fuzzer-shaped case. A word: a code of
// length e and degree d over GF(97) or an NTT prime near 2^20, errs
// errors and erasures erasures at seeded positions, past the radius too.
// With locator set, a locator of degree d with up to errs roots on the
// grid of e points over GF(97), GF(257) or a 61-bit prime, a seeded
// quarter of the points erased when erasures is odd.
func FuzzDecode(f *testing.F) { fuzzDecode(f, true, true) }

// FuzzDecodeErasures fuzzes words alone, FuzzConsecutiveLocator locators.
func FuzzDecodeErasures(f *testing.F)     { fuzzDecode(f, true, false) }
func FuzzConsecutiveLocator(f *testing.F) { fuzzDecode(f, false, true) }

func fuzzDecode(f *testing.F, words, locators bool) {
	if words { // e = 48, d = 15: 2·errs + erasures ≤ 32 decodes
		for i, s := range [][2]uint16{{0, 0}, {4, 8}, {8, 16}, {9, 16}, {0, 33}, {0, 48}, {16, 0}, {30, 30}} {
			f.Add(false, int64(i+1), uint8(1), uint16(46), uint16(15), s[0], s[1])
		}
	}
	if locators {
		for i, s := range [][3]uint16{{0, 63, 20}, {1, 256, 128}, {2, 1534, 200}, {2, 1156, 200}, {2, 1, 1}} {
			f.Add(true, int64(i+1), uint8(s[0]), s[1], s[2], uint16(64), uint16(i%2))
		}
	}
	f.Fuzz(func(t *testing.T, locator bool, seed int64, field uint8, e, d, errs, erasures uint16) {
		rng := rand.New(rand.NewSource(seed))
		if locator && locators {
			q := []uint64{97, 257, q61}[field%3]
			n := 1 + int(e)%int(min(q, 2048))
			var mask []bool
			if erasures%2 == 1 {
				mask = make([]bool, n)
				for i := range mask {
					mask[i] = rng.Intn(4) == 0
				}
			}
			deg := int(d) % n
			locatorCase(rng, q, n, deg, rng.Perm(n)[:min(int(errs), deg)], mask).check(t, false)
		} else if !locator && words {
			q := []uint64{97, nttQ}[field%2]
			n := 2 + int(e)%int(min(q-2, 400))
			c := codeOver(t, q, n, int(d)%n)
			s := int(erasures) % (n + 1)
			sent(rng, c, nil, int(errs)%(n-s+1), s).check(t, false)
		}
	})
}
