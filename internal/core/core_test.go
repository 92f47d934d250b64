package core

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"camelot/internal/ff"
)

// polyProblem is a transparent test problem: width explicit polynomials
// with small integer coefficients, evaluated honestly.
type polyProblem struct {
	name   string
	coeffs [][]int64 // [coord][power]
	minQ   uint64
	primes int
}

var _ Problem = (*polyProblem)(nil)

func (p *polyProblem) Name() string { return p.name }
func (p *polyProblem) Width() int   { return len(p.coeffs) }
func (p *polyProblem) Degree() int {
	d := 0
	for _, c := range p.coeffs {
		if len(c)-1 > d {
			d = len(c) - 1
		}
	}
	return d
}
func (p *polyProblem) MinModulus() uint64 {
	if p.minQ == 0 {
		return 17
	}
	return p.minQ
}
func (p *polyProblem) NumPrimes() int {
	if p.primes == 0 {
		return 1
	}
	return p.primes
}
func (p *polyProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f := ff.Must(q)
	out := make([]uint64, len(p.coeffs))
	for w, cs := range p.coeffs {
		acc := uint64(0)
		for j := len(cs) - 1; j >= 0; j-- {
			acc = f.Add(f.Mul(acc, x0), f.Reduce(cs[j]))
		}
		out[w] = acc
	}
	return out, nil
}

// liarProblem claims degree 1 but actually evaluates x^2: the decoded
// "proof" cannot match fresh evaluations, so verification must fail.
type liarProblem struct{}

var _ Problem = liarProblem{}

func (liarProblem) Name() string       { return "liar" }
func (liarProblem) Width() int         { return 1 }
func (liarProblem) Degree() int        { return 1 }
func (liarProblem) MinModulus() uint64 { return 101 }
func (liarProblem) NumPrimes() int     { return 1 }
func (liarProblem) Evaluate(q, x0 uint64) ([]uint64, error) {
	f := ff.Must(q)
	return []uint64{f.Mul(x0, x0)}, nil
}

func testProblem() *polyProblem {
	return &polyProblem{
		name:   "test-poly",
		coeffs: [][]int64{{3, 1, 4, 1, 5, 9, 2, 6}, {-2, 7, 0, 0, 0, 0, 0, 1}},
	}
}

func TestRunCleanSingleNode(t *testing.T) {
	p := testProblem()
	proof, rep, err := Run(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("clean run not verified")
	}
	if rep.Nodes != 1 || rep.CodeLength != p.Degree()+1 {
		t.Fatalf("geometry: %+v", rep)
	}
	// Coefficients must match the plain polynomial.
	q := proof.Primes[0]
	f := ff.Must(q)
	for w, cs := range p.coeffs {
		for j, c := range cs {
			if proof.Coeffs[q][w][j] != f.Reduce(c) {
				t.Fatalf("coord %d coeff %d = %d, want %d", w, j, proof.Coeffs[q][w][j], f.Reduce(c))
			}
		}
	}
}

func TestRunManyNodesMatchesSingle(t *testing.T) {
	p := testProblem()
	ctx := context.Background()
	p1, _, err := Run(ctx, p, Options{Nodes: 1, FaultTolerance: 3})
	if err != nil {
		t.Fatal(err)
	}
	p8, rep, err := Run(ctx, p, Options{Nodes: 8, FaultTolerance: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 8 {
		t.Fatalf("nodes = %d", rep.Nodes)
	}
	q := p1.Primes[0]
	for w := 0; w < p.Width(); w++ {
		for j := range p1.Coeffs[q][w] {
			if p1.Coeffs[q][w][j] != p8.Coeffs[q][w][j] {
				t.Fatal("K=1 and K=8 proofs differ")
			}
		}
	}
}

func TestRunWithLyingNodesIdentifiesCulprits(t *testing.T) {
	p := testProblem()
	// d=7, f=4 => e = 8 + 8 = 16 points on 8 nodes => 2 points each.
	// One lying node corrupts 2 shares <= radius 4.
	adv := Adversary{Seed: 1, Liars: []int{3}}
	proof, rep, err := Run(context.Background(), p, Options{
		Nodes: 8, FaultTolerance: 4, Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("run with in-radius corruption must verify")
	}
	if len(rep.SuspectNodes) != 1 || rep.SuspectNodes[0] != 3 {
		t.Fatalf("suspects = %v, want [3]", rep.SuspectNodes)
	}
	if rep.CorruptedShares == 0 {
		t.Fatal("no corrupted shares observed")
	}
	// Proof must still be the true polynomial.
	q := proof.Primes[0]
	f := ff.Must(q)
	if proof.Coeffs[q][0][0] != f.Reduce(3) {
		t.Fatal("corrupted run decoded wrong proof")
	}
}

func TestRunWithEquivocation(t *testing.T) {
	// Paper footnote 7: equivocating byzantine nodes send different
	// garbage to different recipients; every honest node still decodes
	// the same proof.
	p := testProblem()
	adv := Adversary{Seed: 7, Equivocators: []int{2, 5}}
	// e = 8+2*8 = 24 points on 12 nodes => 2 points per node; two
	// byzantine nodes corrupt 4 shares <= radius 8.
	_, rep, err := Run(context.Background(), p, Options{
		Nodes: 12, FaultTolerance: 8, Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("not verified under equivocation")
	}
	want := map[int]bool{2: true, 5: true}
	for _, s := range rep.SuspectNodes {
		if !want[s] {
			t.Fatalf("spurious suspect %d", s)
		}
	}
}

func TestRunBeyondRadiusFails(t *testing.T) {
	p := testProblem()
	// f=1 => radius 1, but the lying node owns 2+ points.
	adv := Adversary{Seed: 1, Liars: []int{0}}
	_, _, err := Run(context.Background(), p, Options{
		Nodes: 4, FaultTolerance: 1, Adversary: adv,
	})
	if err == nil {
		t.Fatal("expected decode failure beyond radius")
	}
}

// TestRunAllNodesByzantine: with every node lying and no redundancy
// (f = 0) the lies are a codeword of their own. Nobody tells the decoder
// the nodes are byzantine, so it decodes the lie and the randomized
// check refuses it.
func TestRunAllNodesByzantine(t *testing.T) {
	p := testProblem()
	adv := Adversary{Seed: 1, Liars: []int{0, 1}}
	_, _, err := Run(context.Background(), p, Options{Nodes: 2, Adversary: adv, VerifyTrials: 8})
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("err = %v, want ErrVerificationFailed", err)
	}
}

func TestRunVerificationCatchesNonPolynomial(t *testing.T) {
	_, _, err := Run(context.Background(), liarProblem{}, Options{Seed: 42})
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("err = %v, want ErrVerificationFailed", err)
	}
}

func TestRunMultiPrime(t *testing.T) {
	p := testProblem()
	p.primes = 3
	proof, rep, err := Run(context.Background(), p, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Primes) != 3 || len(rep.Primes) != 3 {
		t.Fatalf("primes = %v", proof.Primes)
	}
	for i := 1; i < 3; i++ {
		if proof.Primes[i] <= proof.Primes[i-1] {
			t.Fatal("primes must be strictly ascending (distinct)")
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := testProblem()
	if _, _, err := Run(ctx, p, Options{Nodes: 2}); err == nil {
		t.Fatal("cancelled context must abort the run")
	}
}

func TestProofEvalAndSumRange(t *testing.T) {
	p := testProblem()
	proof, _, err := Run(context.Background(), p, Options{FaultTolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := proof.Primes[0]
	f := ff.Must(q)
	// Eval inside the table and beyond it must agree with the polynomial.
	for _, x := range []uint64{0, 3, uint64(len(proof.Points)), 99999 % q} {
		want, _ := p.Evaluate(q, x)
		if got := proof.Eval(q, 0, x); got != want[0] {
			t.Fatalf("Eval(%d) = %d, want %d", x, got, want[0])
		}
	}
	// SumRange against direct summation.
	want := uint64(0)
	for x := uint64(2); x < 20; x++ {
		v, _ := p.Evaluate(q, x)
		want = f.Add(want, v[1])
	}
	if got := proof.SumRange(q, 1, 2, 20); got != want {
		t.Fatalf("SumRange = %d, want %d", got, want)
	}
}

func TestVerifyProofRejectsForgery(t *testing.T) {
	p := testProblem()
	proof, _, err := Run(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := proof.Primes[0]
	proof.Coeffs[q][0][2] = (proof.Coeffs[q][0][2] + 1) % q
	rejected := false
	for seed := int64(0); seed < 20 && !rejected; seed++ {
		ok, err := VerifyProof(p, proof, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		rejected = !ok
	}
	if !rejected {
		t.Fatal("forged proof survived 20 trials (d/q = 7/97 per trial)")
	}
}

// TestVerifyProofSoundnessBound measures the paper's soundness claim —
// a forged proof survives a trial with probability at most d/q — on the
// one problem of the module whose q is small enough to see it (d = 7,
// q = 97). A forgery is accepted exactly when the random point is a root
// of forged − true, so a one-coefficient forgery (the difference c·x²,
// root 0 only) passes at rate 1/q, and the worst forgery of degree d
// (the difference Π_{i=1..d}(x − i)) at rate d/q, which is the bound met
// with equality. Over 4000 seeds each count must lie within four
// standard deviations of its binomial mean, and under trials·d/q plus
// the same slack.
func TestVerifyProofSoundnessBound(t *testing.T) {
	const trials = 4000
	p := testProblem()
	honest, _, err := Run(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := honest.Primes[0]
	f := ff.Must(q)
	d := p.Degree()
	worst := []uint64{1} // Π_{i=1..d}(x − i), lowest coefficient first
	for i := 1; i <= d; i++ {
		next := make([]uint64, len(worst)+1)
		for j, c := range worst {
			next[j+1] = f.Add(next[j+1], c)
			next[j] = f.Sub(next[j], f.Mul(c, uint64(i)))
		}
		worst = next
	}
	bound := float64(d) / float64(q)
	slack := func(rate float64) float64 { return 4 * math.Sqrt(trials*rate*(1-rate)) }
	for _, forgery := range []struct {
		name  string
		diff  []uint64 // forged − true, coordinate 0
		roots int
	}{
		{"one coefficient", []uint64{0, 0, 1}, 1},
		{"d roots", worst, d},
	} {
		forged := *honest
		forged.Coeffs = map[uint64][][]uint64{q: {slices.Clone(honest.Coeffs[q][0]), honest.Coeffs[q][1]}}
		for j, c := range forgery.diff {
			forged.Coeffs[q][0][j] = f.Add(forged.Coeffs[q][0][j], c)
		}
		accepted := 0
		for seed := int64(0); seed < trials; seed++ {
			ok, err := VerifyProof(p, &forged, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				accepted++
			}
		}
		rate := float64(forgery.roots) / float64(q)
		t.Logf("%s: accepted %d of %d trials, rate %d/%d predicts %.0f", forgery.name, accepted, trials, forgery.roots, q, trials*rate)
		if off := math.Abs(float64(accepted) - trials*rate); off > slack(rate) {
			t.Errorf("%s: accepted %d of %d, want %.0f ± %.0f (rate %d/%d)", forgery.name, accepted, trials, trials*rate, slack(rate), forgery.roots, q)
		}
		if float64(accepted) > trials*bound+slack(bound) {
			t.Errorf("%s: accepted %d of %d, above the soundness bound d/q = %d/%d (%.0f + %.0f)", forgery.name, accepted, trials, d, q, trials*bound, slack(bound))
		}
	}
}

// TestVerifyProofBatchSoundnessBound measures VerifyProofBatch's
// documented bound, (W−1+max(d, e−1))/q per prime, on the same W = 2
// problem over GF(97), with two faults tolerated so that e−1 = 11 > d = 7
// is the term that counts. A forged symbol adds δ to Evals[c][i]: the
// coordinate's interpolant then exceeds its coefficients by δ·Λ_i(z),
// which vanishes at the e−1 other grid points, and the fold compares
// Σ_c r^c·δ_c·Λ_i(z) with zero. Forged on coordinate 0 alone, a trial
// accepts iff Λ_i(z) = 0: rate (e−1)/q. Forged on coordinate 1 alone, or
// by the same δ on both, the fold is r·δ·Λ_i(z) or (1+r)·δ·Λ_i(z), zero
// iff r is 0 (or −1) or Λ_i(z) = 0: rate (q + (e−1)(q−1))/q², within
// (e−1)/q² of the bound. Over 4000 seeds each
// count must lie within four standard deviations of its rate, and under
// trials times the bound plus the same slack.
func TestVerifyProofBatchSoundnessBound(t *testing.T) {
	const trials = 4000
	p := testProblem()
	honest, _, err := Run(context.Background(), p, Options{FaultTolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := honest.Primes[0]
	e, d, w := len(honest.Points), p.Degree(), p.Width()
	if e-1 <= d {
		t.Fatalf("e = %d: the test wants e−1 > d = %d", e, d)
	}
	qf := float64(q)
	bound := float64(w-1+max(d, e-1)) / qf
	slack := func(rate float64) float64 { return 4 * math.Sqrt(trials*rate*(1-rate)) }
	for _, forgery := range []struct {
		name   string
		coords []int
		rate   float64
	}{
		{"coordinate 0", []int{0}, float64(e-1) / qf},
		{"coordinate 1", []int{1}, (qf + float64(e-1)*(qf-1)) / (qf * qf)},
		{"both coordinates", []int{0, 1}, (qf + float64(e-1)*(qf-1)) / (qf * qf)},
	} {
		forged := *honest
		forged.Evals = map[uint64][][]uint64{q: slices.Clone(honest.Evals[q])}
		for _, c := range forgery.coords {
			forged.Evals[q][c] = slices.Clone(honest.Evals[q][c])
			forged.Evals[q][c][3] = (forged.Evals[q][c][3] + 5) % q
		}
		accepted := 0
		for seed := int64(0); seed < trials; seed++ {
			ok, err := VerifyProofBatch(&forged, seed)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				accepted++
			}
		}
		want := trials * forgery.rate
		t.Logf("%s: accepted %d of %d trials, rate %.4f predicts %.0f, bound %d/%d", forgery.name, accepted, trials, forgery.rate, want, w-1+max(d, e-1), q)
		if off := math.Abs(float64(accepted) - want); off > slack(forgery.rate) {
			t.Errorf("%s: accepted %d of %d, want %.0f ± %.0f", forgery.name, accepted, trials, want, slack(forgery.rate))
		}
		if float64(accepted) > trials*bound+slack(bound) {
			t.Errorf("%s: accepted %d of %d, above the documented bound (W−1+max(d, e−1))/q (%.0f + %.0f)", forgery.name, accepted, trials, trials*bound, slack(bound))
		}
	}
	if ok, err := VerifyProofBatch(honest, 1); err != nil || !ok {
		t.Fatalf("the honest proof: ok=%v err=%v", ok, err)
	}
}

func TestPointAssignmentBalanced(t *testing.T) {
	for _, tc := range []struct{ e, k int }{{10, 3}, {16, 8}, {7, 7}, {5, 1}, {100, 7}} {
		pa := NewPointAssignment(tc.e, tc.k)
		counts := make([]int, tc.k)
		for i := 0; i < tc.e; i++ {
			owner := pa.Owner(i)
			if owner < 0 || owner >= tc.k {
				t.Fatalf("e=%d k=%d: owner(%d)=%d", tc.e, tc.k, i, owner)
			}
			counts[owner]++
		}
		lo, hi := tc.e/tc.k, (tc.e+tc.k-1)/tc.k
		for id, c := range counts {
			if c < lo || c > hi {
				t.Fatalf("e=%d k=%d: node %d owns %d points, want in [%d,%d]", tc.e, tc.k, id, c, lo, hi)
			}
			rlo, rhi := pa.Range(id)
			if rhi-rlo != c {
				t.Fatalf("Range(%d) = [%d,%d) disagrees with owner count %d", id, rlo, rhi, c)
			}
			for i := rlo; i < rhi; i++ {
				if pa.Owner(i) != id {
					t.Fatalf("Owner(%d) != %d", i, id)
				}
			}
		}
	}
}

func TestChoosePrimes(t *testing.T) {
	primes, err := ChoosePrimes(3, 1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, q := range primes {
		if q < 1000 || !ff.IsPrime(q) || (q-1)%64 != 0 {
			t.Fatalf("bad prime %d", q)
		}
		if seen[q] {
			t.Fatal("duplicate prime")
		}
		seen[q] = true
	}
	if _, err := ChoosePrimes(0, 10, 4); err == nil {
		t.Fatal("want error for count=0")
	}
}

// At the width every proof runs at: four primes from 2^61 up ascend
// strictly, fit ff's word, and carry the transform order; and a request
// for more primes than [min, 2^62) holds is an error, not a wrap past
// 2^64 back to small primes.
func TestChoosePrimesWide(t *testing.T) {
	for _, order := range []int{4, 1 << 10, 1 << 20} {
		primes, err := ChoosePrimes(4, 1<<61, order)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		prev := uint64(1<<61 - 1)
		for _, q := range primes {
			if q <= prev || q > ff.MaxPrime || !ff.IsPrime(q) || (q-1)%uint64(order) != 0 {
				t.Errorf("order %d: primes %v: %d does not ascend, fit the word or carry the order", order, primes, q)
			}
			prev = q
		}
	}
	// Two candidates c·2^20+1 are left below 2^62 from here.
	if ps, err := ChoosePrimes(4, ff.MaxPrime-1<<21, 1<<20); err == nil {
		t.Errorf("four primes of order 2^20 in the last 2^21 values below 2^62: got %v", ps)
	}
	for _, min := range []uint64{ff.MaxPrime + 1, 1<<64 - 1} {
		if ps, err := ChoosePrimes(1, min, 4); err == nil {
			t.Errorf("a prime >= %d: got %v", min, ps)
		}
	}
}

// TestAdversaryDeterminism: a faulty node's message is a pure function
// of the record and the message — a liar's every value wrong, the same
// for every recipient, an equivocator's one view per recipient, each
// value wrong and the views apart, an honest node's untouched. Over
// q = 2 every other garbage draw hits the truth, so the bump away from
// it is exercised.
func TestAdversaryDeterminism(t *testing.T) {
	primes := []uint64{2, 101}
	honest := func(id int) NodeShares {
		m := NodeShares{ID: id, Lo: 40, Hi: 104, Vals: make([][][]uint64, len(primes))}
		for pi, q := range primes {
			for c := range 2 {
				vals := make([]uint64, m.Hi-m.Lo)
				for i := range vals {
					vals[i] = uint64(i*7+c) % q
				}
				m.Vals[pi] = append(m.Vals[pi], vals)
			}
		}
		return m
	}
	const k = 4
	adv := Adversary{Seed: 9, Liars: []int{1}, Equivocators: []int{2}}
	for id := range k {
		a, b, truth := honest(id), honest(id), honest(id)
		adv.Apply(&a, primes, k)
		adv.Apply(&b, primes, k)
		if !slices.EqualFunc(a.Views, b.Views, equalView) || !equalView(a.Vals, b.Vals) {
			t.Fatalf("node %d: two applications of one record differ", id)
		}
		for r := range k {
			for pi := range primes {
				for c, vals := range a.View(r)[pi] {
					for i, v := range vals {
						wrong := v != truth.Vals[pi][c][i]
						if wrong != (id == 1 || id == 2) {
							t.Fatalf("node %d, view %d, prime %d, coord %d, point %d: %d against the truth %d",
								id, r, primes[pi], c, i, v, truth.Vals[pi][c][i])
						}
					}
				}
			}
		}
		if (a.Views != nil) != (id == 2) || id == 2 && equalView(a.Views[0], a.Views[1]) {
			t.Fatalf("node %d: views %v", id, a.Views != nil)
		}
	}
}

func equalView(a, b [][][]uint64) bool {
	return slices.EqualFunc(a, b, func(x, y [][]uint64) bool { return slices.EqualFunc(x, y, slices.Equal) })
}

// TestGarbageMatchesHashFNV pins every garbage value the fault records
// have ever drawn: the inlined hash is hash/fnv's
// 64-bit FNV-1a over the parts' little-endian bytes.
func TestGarbageMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		parts := make([]uint64, 1+rng.Intn(6))
		if i%2 == 0 {
			parts = make([]uint64, 6) // what a liar's share passes
		}
		h := fnv.New64a()
		for j := range parts {
			parts[j] = rng.Uint64() >> uint(rng.Intn(64)) // small and large values alike
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], parts[j])
			h.Write(buf[:])
		}
		if got, want := garbage(parts...), h.Sum64(); got != want {
			t.Fatalf("garbage(%v) = %#x, hash/fnv says %#x", parts, got, want)
		}
	}
}

func TestRunMoreNodesThanPoints(t *testing.T) {
	p := &polyProblem{name: "tiny", coeffs: [][]int64{{1, 2}}}
	_, rep, err := Run(context.Background(), p, Options{Nodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes > rep.CodeLength {
		t.Fatalf("nodes %d not clamped to code length %d", rep.Nodes, rep.CodeLength)
	}
}

func TestRunRandomAdversarySweep(t *testing.T) {
	// Property-style sweep: random fault counts within the radius always
	// verify and never implicate honest nodes.
	p := testProblem()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		k := 4 + rng.Intn(8)
		f := 2 + rng.Intn(4)
		e := p.Degree() + 1 + 2*f
		per := (e + k - 1) / k
		maxBad := f / per
		if maxBad == 0 {
			continue
		}
		bad := rng.Perm(k)[:1+rng.Intn(maxBad)]
		adv := Adversary{Seed: uint64(trial), Liars: bad}
		_, rep, err := Run(context.Background(), p, Options{
			Nodes: k, FaultTolerance: f, Adversary: adv, Seed: int64(trial),
		})
		if err != nil {
			t.Fatalf("trial %d (k=%d f=%d bad=%v): %v", trial, k, f, bad, err)
		}
		badSet := map[int]bool{}
		for _, b := range bad {
			badSet[b] = true
		}
		for _, s := range rep.SuspectNodes {
			if !badSet[s] {
				t.Fatalf("trial %d: honest node %d implicated", trial, s)
			}
		}
	}
}

func TestProofBinaryRoundTrip(t *testing.T) {
	p := testProblem()
	p.primes = 2
	proof, _, err := Run(context.Background(), p, Options{FaultTolerance: 3, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Degree != proof.Degree || back.Width != proof.Width ||
		len(back.Points) != len(proof.Points) || len(back.Primes) != len(proof.Primes) {
		t.Fatal("geometry did not round-trip")
	}
	for _, q := range proof.Primes {
		for c := 0; c < proof.Width; c++ {
			for j := range proof.Coeffs[q][c] {
				if back.Coeffs[q][c][j] != proof.Coeffs[q][c][j] {
					t.Fatal("coefficients did not round-trip")
				}
			}
			for j := range proof.Evals[q][c] {
				if back.Evals[q][c][j] != proof.Evals[q][c][j] {
					t.Fatal("evaluations did not round-trip")
				}
			}
		}
	}
	// The deserialized proof must still verify — the Merlin handoff.
	ok, err := VerifyProof(p, &back, 2, 9)
	if err != nil || !ok {
		t.Fatalf("deserialized proof rejected: %v %v", ok, err)
	}
}

func TestProofUnmarshalRejectsGarbage(t *testing.T) {
	var p Proof
	if err := p.UnmarshalBinary([]byte("definitely not a proof")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := p.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty accepted")
	}
	// Valid magic, truncated body.
	if err := p.UnmarshalBinary([]byte{'C', 'M', 'L', 1, 9, 0}); err == nil {
		t.Fatal("truncated accepted")
	}
}
