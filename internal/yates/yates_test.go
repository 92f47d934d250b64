package yates

import (
	"math/rand"
	"sync"
	"testing"

	"camelot/internal/ff"
)

var testField = ff.Must(1000003)

// kroneckerDense materializes A^{⊗k} and multiplies naively — the
// reference for every fast path.
func kroneckerDense(f ff.Field, a []uint64, t, s, k int, x []uint64) []uint64 {
	rows, cols := 1, 1
	m := []uint64{1}
	for level := 0; level < k; level++ {
		nr, nc := rows*t, cols*s
		nm := make([]uint64, nr*nc)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				for bi := 0; bi < t; bi++ {
					for bj := 0; bj < s; bj++ {
						nm[(i*t+bi)*nc+j*s+bj] = f.Mul(m[i*cols+j], a[bi*s+bj])
					}
				}
			}
		}
		m, rows, cols = nm, nr, nc
	}
	y := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		acc := uint64(0)
		for j := 0; j < cols; j++ {
			acc = f.Add(acc, f.Mul(m[i*cols+j], x[j]))
		}
		y[i] = acc
	}
	return y
}

func randBase(rng *rand.Rand, t, s int) []uint64 {
	a := make([]uint64, t*s)
	for i := range a {
		a[i] = rng.Uint64() % testField.Q
	}
	return a
}

func randVec(rng *rand.Rand, n int) []uint64 {
	x := make([]uint64, n)
	for i := range x {
		x[i] = rng.Uint64() % testField.Q
	}
	return x
}

func TestTransformMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ t, s, k int }{
		{2, 2, 1}, {2, 2, 4}, {3, 2, 3}, {7, 4, 2}, {2, 2, 8}, {4, 3, 3},
	}
	for _, c := range cases {
		a := randBase(rng, c.t, c.s)
		x := randVec(rng, pow(c.s, c.k))
		got := Transform(testField, a, c.t, c.s, c.k, x)
		want := kroneckerDense(testField, a, c.t, c.s, c.k, x)
		if len(got) != len(want) {
			t.Fatalf("(%d,%d,%d): length %d want %d", c.t, c.s, c.k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("(%d,%d,%d): index %d: %d want %d", c.t, c.s, c.k, i, got[i], want[i])
			}
		}
	}
}

func TestTransformDifferential(t *testing.T) {
	// The kernel against the naive dense Kronecker product over random
	// shapes on both sides of the axis-order rule (t > s, t = s, t < s),
	// degenerate exponents, and base rows built to hit every path of
	// combine: empty, one, two and 3+ terms, with coefficients drawn from
	// {0, 1, q-1, general} — over the smallest prime, one near 2^20 and
	// one near 2^61.
	rng := rand.New(rand.NewSource(7))
	for _, q := range []uint64{2, 1048583, (1 << 61) - 1} {
		f := ff.Must(q)
		coeff := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return 1
			case 2:
				return q - 1
			}
			return rng.Uint64() % q
		}
		for iter := 0; iter < 300; iter++ {
			tt, s := 1+rng.Intn(7), 1+rng.Intn(7)
			k := rng.Intn(5)
			for pow(max(tt, s), k) > 4096 {
				k--
			}
			a := make([]uint64, tt*s)
			for i := 0; i < tt; i++ {
				row := a[i*s : (i+1)*s]
				switch terms := rng.Intn(5); terms {
				case 4: // anything, including zeros
					for j := range row {
						row[j] = coeff()
					}
				default: // exactly min(terms, s) non-zero entries
					for _, j := range rng.Perm(s)[:min(terms, s)] {
						for row[j] == 0 {
							row[j] = coeff()
						}
					}
				}
			}
			x := make([]uint64, pow(s, k))
			for i := range x {
				x[i] = rng.Uint64() % q
			}
			orig := append([]uint64(nil), x...)
			got := Transform(f, a, tt, s, k, x)
			want := kroneckerDense(f, a, tt, s, k, x)
			if len(got) != len(want) {
				t.Fatalf("q=%d (%d,%d,%d): length %d want %d", q, tt, s, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d (%d,%d,%d) base %v: index %d: %d want %d", q, tt, s, k, a, i, got[i], want[i])
				}
			}
			for i := range x {
				if x[i] != orig[i] {
					t.Fatalf("q=%d (%d,%d,%d): Transform modified its input", q, tt, s, k)
				}
			}
		}
	}
}

func TestTransformIdentityBase(t *testing.T) {
	// A = I2: transform is the identity.
	x := []uint64{5, 6, 7, 8}
	got := Transform(testField, []uint64{1, 0, 0, 1}, 2, 2, 2, x)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("identity transform changed input: %v", got)
		}
	}
}

func TestTransformPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad base":  func() { Transform(testField, []uint64{1}, 2, 2, 1, []uint64{1, 2}) },
		"bad input": func() { Transform(testField, []uint64{1, 0, 0, 1}, 2, 2, 2, []uint64{1, 2}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			fn()
		})
	}
}

func sparseFromDense(x []uint64) []Entry {
	var es []Entry
	for i, v := range x {
		if v != 0 {
			es = append(es, Entry{Index: i, Value: v})
		}
	}
	return es
}

// dense is the full y = A^{⊗k} x from ss's parts, concatenated —
// quadratic in the part count.
func dense(ss *SplitSparse) []uint64 {
	nParts, size := ss.NumParts(), pow(ss.t, ss.ell)
	y := make([]uint64, nParts*size)
	for outer := 0; outer < nParts; outer++ {
		for v, pv := range ss.Part(outer) {
			y[v*nParts+outer] = pv
		}
	}
	return y
}

func TestSplitSparseMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct{ t, s, k, ell, nnz int }{
		{2, 2, 5, 2, 6},
		{3, 2, 4, 2, 5},
		{7, 4, 2, 1, 9},
		{2, 2, 6, 0, 4},  // ell = 0: all outer
		{2, 2, 6, 6, 10}, // ell = k: plain Yates
	}
	for _, c := range cases {
		x := make([]uint64, pow(c.s, c.k))
		for _, i := range rng.Perm(len(x))[:c.nnz] {
			x[i] = 1 + rng.Uint64()%(testField.Q-1)
		}
		ss, err := NewSplitSparse(testField, randBase(rng, c.t, c.s), c.t, c.s, c.k, sparseFromDense(x), c.ell)
		if err != nil {
			t.Fatal(err)
		}
		// A sibling shares the entries' digit tables under another base.
		for _, tr := range []*SplitSparse{ss, ss.Sibling(randBase(rng, c.t, c.s))} {
			want := Transform(testField, tr.a, c.t, c.s, c.k, x)
			got := dense(tr)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("case %+v: index %d: %d want %d", c, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBlockedMatchesTransform(t *testing.T) {
	// Blocks of a Blocked transform against Transform run column by
	// column: word v·s^cut + place(j) must be entry v of
	// A^{⊗(ℓ-cut)} applied to the j-th in-block column of the natural
	// scatter — for every cut from 0 (no blocks) to ℓ (no levels above),
	// a random in-block permutation, and on- and off-grid points.
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct{ t, s, k, ell int }{{7, 4, 5, 3}, {3, 2, 5, 4}, {2, 2, 4, 4}, {7, 4, 3, 0}} {
		x := make([]uint64, pow(c.s, c.k))
		for _, i := range rng.Perm(len(x))[:min(len(x), 12)] {
			x[i] = 1 + rng.Uint64()%(testField.Q-1)
		}
		ss, err := NewSplitSparse(testField, randBase(rng, c.t, c.s), c.t, c.s, c.k, sparseFromDense(x), c.ell)
		if err != nil {
			t.Fatal(err)
		}
		natural := ss.NewPartsEvaluator()
		for cut := 0; cut <= c.ell; cut++ {
			run := pow(c.s, cut)
			perm := rng.Perm(run)
			pe := ss.Blocked(cut, perm).NewPartsEvaluator()
			for _, z0 := range []uint64{1, uint64(ss.NumParts()), 77, testField.Q - 2} {
				scattered := append([]uint64(nil), natural.Scatter(natural.Basis(z0))...)
				got := pe.Blocks(pe.Basis(z0))
				for j := 0; j < run; j++ {
					col := make([]uint64, len(scattered)/run)
					for h := range col {
						col[h] = scattered[h*run+j]
					}
					want := Transform(testField, ss.a, c.t, c.s, c.ell-cut, col)
					for v, wv := range want {
						if g := got[v*run+perm[j]]; g != wv {
							t.Fatalf("case %+v cut=%d z0=%d: block %d word %d = %d, want %d", c, cut, z0, v, perm[j], g, wv)
						}
					}
				}
			}
		}
	}
}

func TestSplitSparseRejectsBadArgs(t *testing.T) {
	a := randBase(rand.New(rand.NewSource(3)), 2, 3)
	if _, err := NewSplitSparse(testField, a, 2, 3, 4, nil, 2); err == nil {
		t.Fatal("want error for t < s")
	}
	b := randBase(rand.New(rand.NewSource(3)), 3, 2)
	if _, err := NewSplitSparse(testField, b, 3, 2, 4, nil, 9); err == nil {
		t.Fatal("want error for ell > k")
	}
	if _, err := NewSplitSparse(testField, b, 3, 2, 2, []Entry{{Index: 99, Value: 1}}, 1); err == nil {
		t.Fatal("want error for out-of-range entry")
	}
	// Scatter positions are int32: s^ℓ = 2^30 inner words fit, 2^31 do not.
	if _, err := NewSplitSparse(testField, []uint64{1, 1, 0, 1}, 2, 2, 30, nil, 30); err != nil {
		t.Fatalf("2^30 inner words: %v", err)
	}
	if _, err := NewSplitSparse(testField, []uint64{1, 1, 0, 1}, 2, 2, 31, nil, 31); err == nil {
		t.Fatal("want error for 2^31 inner words")
	}
}

func TestDefaultEll(t *testing.T) {
	tests := []struct{ t, k, nnz, want int }{
		{2, 10, 1, 0}, {2, 10, 2, 1}, {2, 10, 5, 3}, {2, 3, 1000, 3}, {7, 4, 40, 2},
	}
	for _, tt := range tests {
		if got := DefaultEll(tt.t, tt.k, tt.nnz); got != tt.want {
			t.Errorf("DefaultEll(%d,%d,%d) = %d, want %d", tt.t, tt.k, tt.nnz, got, tt.want)
		}
	}
}

func TestPartsEvaluatorOnGridMatchesParts(t *testing.T) {
	// Paper §3.3: evaluating the polynomial extension at z0 in [t^{k-ℓ}]
	// reproduces exactly the split/sparse parts — for a general base and
	// for the 0/±1 Strassen base, whose weights are mostly zero on the grid.
	rng := rand.New(rand.NewSource(4))
	for _, c := range []struct {
		t, s, k, ell int
		base         []uint64
	}{
		{3, 2, 4, 2, randBase(rng, 3, 2)},
		{7, 4, 3, 1, strassenAlpha(testField)},
	} {
		x := make([]uint64, pow(c.s, c.k))
		for _, i := range rng.Perm(len(x))[:5] {
			x[i] = 1 + rng.Uint64()%(testField.Q-1)
		}
		ss, err := NewSplitSparse(testField, c.base, c.t, c.s, c.k, sparseFromDense(x), c.ell)
		if err != nil {
			t.Fatal(err)
		}
		pe := ss.NewPartsEvaluator()
		for outer := 0; outer < ss.NumParts(); outer++ {
			want := ss.Part(outer)
			got := partsAt(pe, uint64(outer+1))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("(%d,%d,%d) outer %d entry %d: %d want %d", c.t, c.s, c.k, outer, i, got[i], want[i])
				}
			}
		}
	}
}

// partsAt is u^{(ℓ)}(z0) through an evaluator: its scatter pushed
// through the one-shot inner transform.
func partsAt(pe *PartsEvaluator, z0 uint64) []uint64 {
	ss := pe.ss
	return Transform(ss.f, ss.a, ss.t, ss.s, ss.ell, pe.Scatter(pe.Basis(z0)))
}

// partsAtDense is the dense reference of the §3.3 polynomial extension:
// the full product y = A^{⊗k} x by kroneckerDense, cut into its parts
// y[v·t^{k-ℓ} + o] and combined with the one-shot Lagrange basis over
// the 1-based part range.
func partsAtDense(f ff.Field, a []uint64, t, s, k, ell int, x []uint64, z0 uint64) []uint64 {
	y := kroneckerDense(f, a, t, s, k, x)
	nParts := pow(t, k-ell)
	lam := f.LagrangeAtOneBased(nParts, z0)
	out := make([]uint64, pow(t, ell))
	for v := range out {
		for o := 0; o < nParts; o++ {
			out[v] = f.Add(out[v], f.Mul(y[v*nParts+o], lam[o]))
		}
	}
	return out
}

func TestZetaTransform(t *testing.T) {
	// Over integers: vals[Y] must become Σ_{X⊆Y} original[X].
	n := 4
	vals := make([]uint64, 1<<n)
	orig := make([]uint64, 1<<n)
	rng := rand.New(rand.NewSource(6))
	for i := range vals {
		vals[i] = rng.Uint64() % 1000
		orig[i] = vals[i]
	}
	Zeta(n, vals, func(dst, src uint64) uint64 { return dst + src })
	for y := 0; y < 1<<n; y++ {
		want := uint64(0)
		for x := 0; x < 1<<n; x++ {
			if x&^y == 0 {
				want += orig[x]
			}
		}
		if vals[y] != want {
			t.Fatalf("zeta[%04b] = %d, want %d", y, vals[y], want)
		}
	}
}

func TestZetaPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Zeta(3, make([]uint64, 7), func(a, b uint64) uint64 { return a + b })
}

func BenchmarkTransform2x2x12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randBase(rng, 2, 2)
	x := randVec(rng, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Transform(testField, a, 2, 2, 12, x)
	}
}

func BenchmarkSplitSparsePart(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const tt, s, k = 7, 4, 5
	entries := make([]Entry, 200)
	for i := range entries {
		entries[i] = Entry{Index: rng.Intn(pow(s, k)), Value: 1 + rng.Uint64()%(testField.Q-1)}
	}
	ss, err := NewSplitSparse(testField, randBase(rng, tt, s), tt, s, k, entries, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ss.Part(i % ss.NumParts())
	}
}

func TestPartsEvaluatorMatchesDense(t *testing.T) {
	// The one per-point path against the dense reference everywhere: on
	// the grid, off the grid, and at points needing reduction mod q.
	rng := rand.New(rand.NewSource(6))
	cases := []struct{ t, s, k, ell, nnz int }{
		{2, 2, 5, 2, 6},
		{3, 2, 4, 2, 5},
		{7, 4, 2, 1, 9},
		{2, 2, 6, 0, 4},
		{3, 2, 3, 3, 4}, // ell = k: one part, constant polynomials
	}
	for _, c := range cases {
		x := make([]uint64, pow(c.s, c.k))
		for _, i := range rng.Perm(len(x))[:c.nnz] {
			x[i] = 1 + rng.Uint64()%(testField.Q-1)
		}
		x[rng.Perm(len(x))[0]] = 1 // the unit-value shortcut of the scatter
		a := randBase(rng, c.t, c.s)
		ss, err := NewSplitSparse(testField, a, c.t, c.s, c.k, sparseFromDense(x), c.ell)
		if err != nil {
			t.Fatal(err)
		}
		pe := ss.NewPartsEvaluator()
		points := []uint64{0, 1, 2, uint64(ss.NumParts()), uint64(ss.NumParts()) + 1, testField.Q - 1, testField.Q + 5}
		for i := 0; i < 10; i++ {
			points = append(points, rng.Uint64()%(2*testField.Q))
		}
		for _, z0 := range points {
			want := partsAtDense(testField, a, c.t, c.s, c.k, c.ell, x, z0)
			got := partsAt(pe, z0)
			if len(got) != len(want) {
				t.Fatalf("case %+v z0=%d: length %d want %d", c, z0, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("case %+v z0=%d entry %d: %d want %d", c, z0, i, got[i], want[i])
				}
			}
		}
	}
}

// strassenAlpha is the 7×4 α-side base of the triangle workloads (rows
// M1..M7 over u11, u12, u21, u22) with −1 written as q−1.
func strassenAlpha(f ff.Field) []uint64 {
	m := f.Q - 1
	return []uint64{
		1, 0, 0, 1,
		0, 0, 1, 1,
		1, 0, 0, 0,
		0, 0, 0, 1,
		1, 1, 0, 0,
		m, 0, 1, 0,
		0, 1, 0, m,
	}
}

// evalBoundTransform is one side of the eval_bound geometry: 7×4 ±1
// base, k = 7, ℓ = 5, a few thousand unit entries.
func evalBoundTransform(tb testing.TB) *SplitSparse {
	rng := rand.New(rand.NewSource(8))
	entries := make([]Entry, 3000)
	for i := range entries {
		entries[i] = Entry{Index: rng.Intn(pow(4, 7)), Value: 1}
	}
	ss, err := NewSplitSparse(testField, strassenAlpha(testField), 7, 4, 7, entries, 5)
	if err != nil {
		tb.Fatal(err)
	}
	return ss
}

func TestPartsEvaluatorAliasing(t *testing.T) {
	// Scatter and Blocks return the evaluator's own scratch, valid until
	// its next call. Successive calls on one evaluator and interleaved
	// calls on two must give the residues a fresh evaluator gives — with
	// one level above 16×16 blocks, so Blocks ping-pongs in the buffer
	// the scatter's weights used.
	ss := evalBoundTransform(t).Blocked(4, rand.New(rand.NewSource(5)).Perm(256))
	at := func(pe *PartsEvaluator, z0 uint64) []uint64 { return pe.Blocks(pe.Basis(z0)) }
	fresh := func(z0 uint64) []uint64 {
		return append([]uint64(nil), at(ss.NewPartsEvaluator(), z0)...)
	}
	equal := func(what string, got, want []uint64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d: %d want %d", what, i, got[i], want[i])
			}
		}
	}
	w1, w2 := fresh(77), fresh(123456)
	pe, other := ss.NewPartsEvaluator(), ss.NewPartsEvaluator()
	equal("first call", at(pe, 77), w1)
	equal("second call on the same evaluator", at(pe, 123456), w2)
	equal("repeat of the first point", at(pe, 77), w1)
	g1 := at(pe, 77)
	g2 := at(other, 123456)
	equal("held result after another evaluator ran", g1, w1)
	equal("the other evaluator", g2, w2)
	equal("shared basis", other.Blocks(pe.Basis(77)), w1)
}

func TestPartsEvaluatorsConcurrentOnOneTransform(t *testing.T) {
	// Compiled plans hand one SplitSparse (and its compiled kernels) to
	// every node goroutine, each with its own evaluator; run with -race,
	// this pins that the shared half is only ever read.
	ss := evalBoundTransform(t).Blocked(4, rand.New(rand.NewSource(5)).Perm(256))
	points := []uint64{3, 50, 1 << 40, 999}
	want := make([][]uint64, len(points))
	pe := ss.NewPartsEvaluator()
	for i, z0 := range points {
		want[i] = append([]uint64(nil), pe.Blocks(pe.Basis(z0))...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pe := ss.NewPartsEvaluator()
			for i, z0 := range points {
				got := pe.Blocks(pe.Basis(z0))
				for v := range want[i] {
					if got[v] != want[i][v] {
						t.Errorf("z0=%d entry %d: %d want %d", z0, v, got[v], want[i][v])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkTransform7x4x5(b *testing.B) {
	// The inner transform of eval_bound, through the kernel as the
	// evaluator drives it: compiled once, caller-owned scratch.
	rng := rand.New(rand.NewSource(1))
	pw := compile(testField, strassenAlpha(testField), 7, 4, 5, 1)
	x := randVec(rng, pow(4, 5))
	buf := make([]uint64, pw.scratch())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pw.apply(x, buf)
	}
}

func BenchmarkPartsEvaluatorScatter(b *testing.B) {
	// One side of one point at the eval_bound geometry, the basis built
	// once outside the loop as the three sides share it: outer weights
	// and scatter, all of a side's work before the block kernel, since
	// ℓ = 5 is one 32×32 block.
	pe := evalBoundTransform(b).NewPartsEvaluator()
	phi := append([]uint64(nil), pe.Basis(1000)...)
	b.ReportAllocs()
	for b.Loop() {
		_ = pe.Scatter(phi)
	}
}

// perEntry is the oracle for the grouped scatter: every entry of the
// list as given, its weight and position formed on its own from its
// index, for ss = NewSplitSparse(…, entries, …) Blocked at cut with
// place.
type perEntry struct {
	ss      *SplitSparse
	entries []Entry
	cut     int
	place   []int
}

// scatter is x^{(ℓ)} in the blocked layout for the weights alpha of
// every low index.
func (o perEntry) scatter(alpha []uint64) []uint64 {
	ss := o.ss
	f, fk := ss.f, ss.f.Kernel()
	sLow, run := pow(ss.s, ss.k-ss.ell), pow(ss.s, o.cut)
	xl := make([]uint64, pow(ss.s, ss.ell))
	for _, e := range o.entries {
		w := alpha[e.Index%sLow]
		if w == 0 {
			continue
		}
		if v := e.Value; v != 1 {
			w = ff.MulK(w, v, fk)
		}
		h := e.Index / sLow
		at := h - h%run + o.place[h%run]
		xl[at] = f.Add(xl[at], w)
	}
	return xl
}

// part is Part(outer) with each entry's weight the product over its own
// low digits.
func (o perEntry) part(outer int) []uint64 {
	ss := o.ss
	f, nOut := ss.f, ss.k-ss.ell
	sLow := pow(ss.s, nOut)
	outDigs := make([]int, nOut)
	for d, x := nOut-1, outer; d >= 0; d, x = d-1, x/ss.t {
		outDigs[d] = x % ss.t
	}
	xl := make([]uint64, pow(ss.s, ss.ell))
	for _, e := range o.entries {
		w := uint64(1)
		for d, lo := nOut-1, e.Index%sLow; d >= 0; d, lo = d-1, lo/ss.s {
			w = f.Mul(w, ss.a[outDigs[d]*ss.s+lo%ss.s])
		}
		h := e.Index / sLow
		xl[h] = f.Add(xl[h], f.Mul(w, e.Value))
	}
	return Transform(f, ss.a, ss.t, ss.s, ss.ell, xl)
}

// checkScatterMatchesPerEntry holds Part, and Scatter and Blocks at
// every cut with a random place, to the per-entry oracle bit for bit.
func checkScatterMatchesPerEntry(tb testing.TB, rng *rand.Rand, f ff.Field, a []uint64, t, s, k, ell int, entries []Entry) {
	tb.Helper()
	ss, err := NewSplitSparse(f, a, t, s, k, entries, ell)
	if err != nil {
		tb.Fatal(err)
	}
	equal := func(what string, got, want []uint64) {
		tb.Helper()
		for i := range want {
			if got[i] != want[i] {
				tb.Fatalf("(%d,%d,%d) ℓ=%d, %d entries: %s word %d = %d, want %d", t, s, k, ell, len(entries), what, i, got[i], want[i])
			}
		}
	}
	for outer := 0; outer < ss.NumParts(); outer += 1 + rng.Intn(5) {
		equal("Part", ss.Part(outer), perEntry{ss: ss, entries: entries}.part(outer))
	}
	for cut := 0; cut <= ell; cut++ {
		place := rng.Perm(pow(s, cut))
		o := perEntry{ss.Blocked(cut, place), entries, cut, place}
		pe := o.ss.NewPartsEvaluator()
		for _, z0 := range []uint64{1, uint64(ss.NumParts()), 0, rng.Uint64() % f.Q} {
			phi := pe.Basis(z0)
			alpha := ss.outer.apply(phi, make([]uint64, ss.outer.scratch()))
			want := o.scatter(alpha)
			equal("Weights", pe.Weights(phi), alpha)
			// Groups and Weights rebuild the scatter on their own.
			start, pos, vals := o.ss.Groups()
			grouped := make([]uint64, len(want))
			for lo, w := range alpha {
				for i := start[lo]; i < start[lo+1]; i++ {
					v := uint64(1)
					if vals != nil {
						v = vals[i]
					}
					grouped[pos[i]] = f.Add(grouped[pos[i]], f.Mul(w, v))
				}
			}
			equal("Groups", grouped, want)
			equal("Scatter", pe.Scatter(phi), want)
			if o.ss.above.k > 0 {
				want = o.ss.above.apply(want, make([]uint64, o.ss.above.scratch()))
			}
			equal("Blocks", pe.Blocks(phi), want)
		}
	}
}

// randEntries draws n entries over [size] — indices repeating about one
// time in four — with values from {0, 1, q−1, random}, or all 1 when
// unit is set.
func randEntries(rng *rand.Rand, q uint64, size, n int, unit bool) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Index: rng.Intn(size), Value: 1}
		if i > 0 && rng.Intn(4) == 0 {
			entries[i].Index = entries[rng.Intn(i)].Index
		}
		if !unit {
			entries[i].Value = []uint64{0, 1, q - 1, rng.Uint64() % q}[rng.Intn(4)]
		}
	}
	return entries
}

func TestScatterMatchesPerEntry(t *testing.T) {
	// The grouped scatter against the per-entry loop it replaced, over
	// random t×s bases and the 0/±1 Strassen base (whose weights are
	// often 0), unit and general values, duplicate indices, no entries at
	// all, ℓ = 0 and ℓ = k, every cut — over a small prime and 2^61−1.
	rng := rand.New(rand.NewSource(10))
	for _, q := range []uint64{testField.Q, (1 << 61) - 1} {
		f := ff.Must(q)
		for _, c := range []struct{ t, s, k int }{{2, 2, 5}, {3, 2, 4}, {7, 4, 3}, {4, 3, 3}, {3, 1, 3}} {
			for ell := 0; ell <= c.k; ell++ {
				size := pow(c.s, c.k)
				for _, n := range []int{0, 1, 3, 2 * size} {
					for _, unit := range []bool{false, true} {
						a := randBase(rng, c.t, c.s)
						for i := range a {
							a[i] = []uint64{0, 1, f.Q - 1, rng.Uint64() % f.Q}[rng.Intn(4)]
						}
						if c.t == 7 && unit {
							a = strassenAlpha(f)
						}
						checkScatterMatchesPerEntry(t, rng, f, a, c.t, c.s, c.k, ell, randEntries(rng, f.Q, size, n, unit))
					}
				}
			}
		}
	}
}

// FuzzSplitSparseScatter decodes a shape from the first byte and an
// entry from every three after it — two bytes of index, one of value
// (0, 1, q−1 or the byte itself) — and holds the grouped scatter to the
// per-entry oracle.
func FuzzSplitSparseScatter(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 3, 1, 0, 3, 2, 7, 9, 0})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	shapes := []struct{ t, s, k int }{{2, 2, 4}, {3, 2, 4}, {7, 4, 3}, {4, 3, 3}, {3, 1, 2}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := shapes[int(data[0])%len(shapes)]
		ell := int(data[0]/8) % (c.k + 1)
		var entries []Entry
		for b := data[1:]; len(b) >= 3 && len(entries) < 256; b = b[3:] {
			v := uint64(b[2])
			switch v % 4 {
			case 0, 1:
				v %= 4
			case 2:
				v = testField.Q - 1
			}
			entries = append(entries, Entry{Index: (int(b[0])<<8 | int(b[1])) % pow(c.s, c.k), Value: v})
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		checkScatterMatchesPerEntry(t, rng, testField, randBase(rng, c.t, c.s), c.t, c.s, c.k, ell, entries)
	})
}
