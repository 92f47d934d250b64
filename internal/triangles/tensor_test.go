package triangles

// Tests of the group-tensor plan: bit for bit against Evaluate, the
// block evaluator and referenceP; its T against the all-triples
// referenceTensor; the orbit table it is built over; the rule that
// selects it; verification refusing a wrong tensor; its allocations; and
// a fuzzer.

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/plan"
	"camelot/internal/tensor"
	"camelot/internal/yates"
)

// topPrime is the largest prime the field package accepts, below 2^62.
func topPrime() uint64 {
	top := uint64(ff.MaxPrime)
	for !ff.IsPrime(top) {
		top -= 2
	}
	return top
}

func TestGroupTensorMatchesEvaluate(t *testing.T) {
	// The plan Compile returns at each geometry below is the group tensor,
	// and at every grid point z0 ∈ [1, R/m'], the first point past the
	// grid, q−1 and large off-grid points it must equal the verifier's
	// Evaluate and referenceP bit for bit, over the 2^61 floor and the
	// largest prime below 2^62; the grid values must sum to the trace.
	for _, tc := range []struct {
		name    string
		base    tensor.Decomposition
		g       *graph.Graph
		groups  int
		side    int
		nPoints int
	}{
		{"eval_bound_p0.2", tensor.Strassen(), graph.Gnp(128, 0.2, 1), 16, 32, 49},
		{"eval_bound_p0.5", tensor.Strassen(), graph.Gnp(128, 0.5, 2), 16, 32, 49},
		{"strassen_n16", tensor.Strassen(), graph.Gnp(16, 0.5, 3), 4, 8, 7},
		{"trivial2_n128", tensor.Trivial(2), graph.Gnp(128, 0.5, 4), 16, 32, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewProblem(tc.g, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			if p.nParts != tc.nPoints {
				t.Fatalf("%d parts, want %d", p.nParts, tc.nPoints)
			}
			trace := 6 * CountNaive(tc.g)
			for _, q := range []uint64{ff.NextPrime(1 << 61), topPrime()} {
				f := ff.Must(q)
				pl, err := p.Compile(f)
				if err != nil {
					t.Fatal(err)
				}
				gt, ok := pl.(*groupTensor)
				if !ok || gt.g != tc.groups || gt.tr.side != tc.side {
					t.Fatalf("q=%d: compiled %T, want a group tensor of %d groups over side %d", q, pl, tc.groups, tc.side)
				}
				var xs []uint64
				for z0 := uint64(1); z0 <= uint64(p.nParts)+1; z0++ {
					xs = append(xs, z0)
				}
				xs = append(xs, q-1, q-2, 1<<40+7, q/2+3)
				rows, err := gt.EvaluateBlock(xs)
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceP(f, adjacencyEntries(tc.g, p.dc), p.dc, p.ell, xs)
				sum := uint64(0)
				for i, x := range xs {
					want, err := p.Evaluate(q, x)
					if err != nil {
						t.Fatal(err)
					}
					if rows[i][0] != want[0] || rows[i][0] != ref[i] {
						t.Fatalf("q=%d z0=%d: tensor %d, Evaluate %d, reference %d", q, x, rows[i][0], want[0], ref[i])
					}
					if x <= uint64(p.nParts) {
						sum = f.Add(sum, rows[i][0])
					}
				}
				if sum != f.ReduceU(trace) {
					t.Fatalf("q=%d: grid sum %d, want trace %d", q, sum, trace)
				}
			}
		})
	}
}

// referenceTensor is T for tr counted over every triple, the orbit
// build's oracle: row d of a β or γ group block is one side-bit word
// read off that side's own grouped places, and each α entry (d, e) of
// M_a adds popcount(M_b[e] & M_c[d]) to T[a][b][c] for every b and c —
// |D|·G² word operations, serially. It returns nil when a β or γ group
// repeats a place.
func referenceTensor(tr *sparseTriple) []uint16 {
	side := int32(tr.side)
	startA, posA, _ := tr.a.Groups()
	g := len(startA) - 1
	// rows[d·G+c] is row d of M_c: bit f is M_c[d][f]. β is laid out
	// transposed (place f·side+e holds M_b[e][f]) and γ row-major.
	rows := func(ss *yates.SplitSparse, transposed bool) []uint64 {
		start, pos, _ := ss.Groups()
		m := make([]uint64, tr.side*g)
		for c := 0; c < g; c++ {
			for _, p := range pos[start[c]:start[c+1]] {
				d, f := p/side, p%side
				if transposed {
					d, f = f, d
				}
				if m[int(d)*g+c]&(1<<f) != 0 {
					return nil
				}
				m[int(d)*g+c] |= 1 << f
			}
		}
		return m
	}
	bRows, cRows := rows(tr.b, true), rows(tr.c, false)
	if bRows == nil || cRows == nil {
		return nil
	}
	t := make([]uint16, g*g*g)
	for a := 0; a < g; a++ {
		for _, p := range posA[startA[a]:startA[a+1]] {
			d, e := int(p/side), int(p%side)
			for b := 0; b < g; b++ {
				for c := 0; c < g; c++ {
					t[(a*g+b)*g+c] += uint16(bits.OnesCount64(bRows[e*g+b] & cRows[d*g+c]))
				}
			}
		}
	}
	return t
}

// tensorGeometry is one group-tensor geometry of the tests below: a
// graph, a base and ℓ, with the groups a side has there.
type tensorGeometry struct {
	name   string
	base   tensor.Decomposition
	g      *graph.Graph
	ell    int
	groups int
}

// tensorGeometries are TestGroupTensorMatchesEvaluate's four geometries
// at the ℓ NewProblem picks for them, Trivial(3) at n=27 (nine groups
// over side 9, where the plan rule would keep the block product), a
// hub-and-spoke graph whose group sizes are skewed, and a graph with
// empty groups.
func tensorGeometries() []tensorGeometry {
	hub := graph.Gnp(128, 0.03, 5)
	for v := 1; v < 128; v++ {
		hub.AddEdge(0, v)
		if v > 5 && v%3 == 0 {
			hub.AddEdge(5, v)
		}
	}
	// No vertex ≡ 3 (mod 4) has an edge, so every group whose two row
	// digits or two column digits are 1 is empty.
	sparse, gnp := graph.New(128), graph.Gnp(128, 0.4, 6)
	for _, e := range gnp.Edges() {
		if e[0]%4 != 3 && e[1]%4 != 3 {
			sparse.AddEdge(e[0], e[1])
		}
	}
	return []tensorGeometry{
		{"eval_bound_p0.2", tensor.Strassen(), graph.Gnp(128, 0.2, 1), 5, 16},
		{"eval_bound_p0.5", tensor.Strassen(), graph.Gnp(128, 0.5, 2), 5, 16},
		{"strassen_n16", tensor.Strassen(), graph.Gnp(16, 0.5, 3), 3, 4},
		{"trivial2_n128", tensor.Trivial(2), graph.Gnp(128, 0.5, 4), 5, 16},
		{"trivial3_n27", tensor.Trivial(3), graph.Gnp(27, 0.5, 7), 2, 9},
		{"hub_and_spoke", tensor.Strassen(), hub, 5, 16},
		{"empty_groups", tensor.Strassen(), sparse, 5, 16},
	}
}

// triple is the geometry's sparse triple over the 2^61 floor.
func (tg tensorGeometry) triple(tb testing.TB) *sparseTriple {
	dc, _ := tg.base.ForSize(tg.g.N())
	tr, err := newSparseTriple(ff.Must(ff.NextPrime(1<<61)), adjacencyEntries(tg.g, dc), dc, tg.ell)
	if err != nil {
		tb.Fatal(err)
	}
	if start, _, _ := tr.a.Groups(); tr.levels != 0 || len(start)-1 != tg.groups {
		tb.Fatalf("%s: %d levels above the block and %d groups, want 0 and %d", tg.name, tr.levels, len(start)-1, tg.groups)
	}
	return tr
}

func TestGroupTensorMatchesReference(t *testing.T) {
	// The orbit-built T equals the all-triples count entry for entry at
	// every geometry, skewed and empty groups included.
	for _, tg := range tensorGeometries() {
		t.Run(tg.name, func(t *testing.T) {
			tr := tg.triple(t)
			start, _, _ := tr.a.Groups()
			sizes := make([]int, tg.groups)
			for a := range sizes {
				sizes[a] = start[a+1] - start[a]
			}
			if tg.name == "empty_groups" && slices.Min(sizes) != 0 {
				t.Fatalf("group sizes %v: no empty group", sizes)
			}
			gt, want := newGroupTensor(tr), referenceTensor(tr)
			if gt == nil || want == nil {
				t.Fatalf("orbit build %v, reference %v: want both", gt != nil, want != nil)
			}
			for i, v := range want {
				if gt.t[i] != v {
					g := tg.groups
					t.Fatalf("group sizes %v: T[%d][%d][%d] = %d, reference %d", sizes, i/(g*g), i/g%g, i%g, gt.t[i], v)
				}
			}
		})
	}
}

func TestGroupTensorOrbitTable(t *testing.T) {
	// At every geometry τ transposes a group block on the row table
	// (M_{τa} = M_aᵀ), every one of the G³ triples lies in exactly one
	// orbit, and the orbit counts — the triples the build counts — are
	// 720 at G = 16 (N0 = 2), 138 at G = 9 (N0 = 3) and 16 at G = 4,
	// each read from the prebuilt tables.
	orbits := map[int]int{16: 720, 9: 138, 4: 16}
	for _, tg := range tensorGeometries() {
		t.Run(tg.name, func(t *testing.T) {
			tr := tg.triple(t)
			g := tg.groups
			ot := orbitTables[[2]int{tr.n0, g}]
			if ot == nil || orbitsFor(tr.n0, g) != ot {
				t.Fatalf("N0=%d, G=%d: no prebuilt orbit table", tr.n0, g)
			}
			rows, _ := rowTable(tr)
			for a := range g {
				for d := range tr.side {
					for f := range tr.side {
						if rows[ot.tau[a]][d]>>f&1 != rows[a][f]>>d&1 {
							t.Fatalf("M_τ%d[%d][%d] != M_%d[%d][%d]", a, d, f, a, f, d)
						}
					}
				}
			}
			seen := make([]int, g*g*g)
			for _, m := range ot.member {
				seen[m]++
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("triple (%d, %d, %d) in %d orbits", i/(g*g), i/g%g, i%g, n)
				}
			}
			if len(ot.rep) != orbits[g] || len(ot.start) != len(ot.rep)+1 {
				t.Fatalf("G=%d: %d orbits, want %d", g, len(ot.rep), orbits[g])
			}
		})
	}
}

func TestGroupTensorRule(t *testing.T) {
	// Compile takes the group tensor at eval_bound's n=128 and keeps the
	// block product at serve_cold's n=36 and ctrl_workers' n=48 (G³ >=
	// side³ there) and at ℓ = 6, n=256 (a Yates level above the block),
	// over several graph seeds of each.
	for _, c := range []struct {
		n      int
		p      float64
		tensor bool
	}{
		{128, 0.2, true}, {128, 0.5, true}, {36, 0.3, false}, {48, 0.2, false}, {256, 0.3, false},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			p, err := NewProblem(graph.Gnp(c.n, c.p, seed), tensor.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			if c.n == 256 && p.ell != 6 {
				t.Fatalf("n=256 seed %d: ℓ=%d, want 6", seed, p.ell)
			}
			pl, err := p.Compile(ff.Must(ff.NextPrime(1 << 61)))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := pl.(*groupTensor); ok != c.tensor {
				t.Errorf("n=%d p=%v seed %d: compiled %T, group tensor wanted: %v", c.n, c.p, seed, pl, c.tensor)
			}
		}
	}
}

// wrongTensor is the triangle problem whose compiled group tensor has
// one entry raised by one.
type wrongTensor struct{ *Problem }

func (w wrongTensor) Compile(f ff.Field) (plan.Plan, error) {
	pl, err := w.Problem.Compile(f)
	if err != nil {
		return nil, err
	}
	gt, ok := pl.(*groupTensor)
	if !ok {
		return nil, fmt.Errorf("compiled %T, not a group tensor", pl)
	}
	wrong := *gt
	wrong.t = append([]uint16(nil), gt.t...)
	wrong.t[(5*gt.g+9)*gt.g+2]++
	return &wrong, nil
}

func TestVerifierRefusesWrongTensor(t *testing.T) {
	// The nodes evaluate through the group tensor and the verifier through
	// Evaluate's block product, which shares none of it. A wrong T entry
	// makes every node's values one consistent but wrong polynomial: it
	// decodes cleanly and must then be refused by verification.
	p, err := NewProblem(graph.Gnp(128, 0.2, 1), tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		_, _, err := core.Run(context.Background(), wrongTensor{p}, core.Options{Nodes: 4, Seed: seed})
		if !errors.Is(err, core.ErrVerificationFailed) {
			t.Fatalf("seed %d: run with a wrong tensor returned %v, want %v", seed, err, core.ErrVerificationFailed)
		}
	}
	if _, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 4, Seed: 1}); err != nil || !rep.Verified {
		t.Fatalf("the same run with the right tensor: verified %v, %v", rep.Verified, err)
	}
}

// blockAllocs returns the allocations and bytes of one EvaluateBlock.
func blockAllocs(tb testing.TB, pl plan.Plan, xs []uint64) (allocs, bytes uint64) {
	const runs = 64
	if _, err := pl.EvaluateBlock(xs); err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		pl.EvaluateBlock(xs)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

func TestGroupTensorAllocations(t *testing.T) {
	// At eval_bound a block of the group-tensor plan builds none of the
	// three side²-word scatter vectors the block plan needs: beside the
	// block plan over the same triple it allocates two fewer objects (the
	// three vectors against its 2G² words of y·z products) and more than
	// two vectors' bytes fewer — with one vector built the gap would be
	// 2·side² − 2G² words. The margin absorbs what other goroutines
	// allocate while the counts run.
	tr := evalBoundTriple(t, 5)
	gt := tr.tensorPlan()
	if gt == nil {
		t.Fatal("eval_bound has no group-tensor plan")
	}
	xs := make([]uint64, 32)
	for i := range xs {
		xs[i] = uint64(100 + i)
	}
	blockN, blockBytes := blockAllocs(t, tr, xs)
	tensorN, tensorBytes := blockAllocs(t, gt, xs)
	saved := uint64(2*tr.side*tr.side) * 8
	if tensorN+2 > blockN || tensorBytes+saved >= blockBytes {
		t.Fatalf("a tensor block allocates %d objects, %d bytes; a block-plan block %d, %d — want at least 2 objects and over %d bytes fewer",
			tensorN, tensorBytes, blockN, blockBytes, saved)
	}
}

// FuzzTrianglePlan builds a graph and a base from the bytes — n from the
// first, the base from the second, ℓ from the third, the prime from the
// fourth, one edge bit per vertex pair from the rest — at an ℓ whose
// inner digits are one block (cut = ℓ) of at most 64 groups, whether or
// not the rule would pick the tensor there, and holds the group-tensor
// plan's T to referenceTensor and its values to the block evaluator.
func FuzzTrianglePlan(f *testing.F) {
	f.Add([]byte{14, 0, 0, 1, 0xff, 0x0f, 0xa5, 0x3c})
	f.Add([]byte{20, 1, 1, 0, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a})
	f.Add([]byte{9, 2, 2, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{2})
	bases := []tensor.Decomposition{tensor.Strassen(), tensor.Trivial(2), tensor.Trivial(3)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%30
		g := graph.New(n)
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if i := 4 + bit/8; i < len(data) && data[i]>>(bit%8)&1 == 1 {
					g.AddEdge(u, v)
				}
				bit++
			}
		}
		dc, _ := bases[int(data[1])%len(bases)].ForSize(n)
		var ells []int // ℓ with cut = ℓ and at most 64 groups
		for ell, side := 0, 1; ell <= dc.T && side <= blockSide; ell, side = ell+1, side*dc.N0 {
			if groups := pow(dc.N0*dc.N0, dc.T-ell); groups <= 64 {
				ells = append(ells, ell)
			}
		}
		if len(ells) == 0 {
			return
		}
		ell := ells[int(data[2])%len(ells)]
		nParts := pow(dc.R0, dc.T-ell)
		q := []uint64{ff.NextPrime(uint64(3*nParts + 2)), ff.NextPrime(1 << 61), topPrime()}[int(data[3])%3]
		tr, err := newSparseTriple(ff.Must(q), adjacencyEntries(g, dc), dc, ell)
		if err != nil {
			t.Fatal(err)
		}
		if tr.levels != 0 {
			t.Fatalf("N0=%d T=%d ℓ=%d: %d levels above the block", dc.N0, dc.T, ell, tr.levels)
		}
		gt := newGroupTensor(tr)
		if gt == nil {
			t.Fatal("no group tensor for a graph's entries")
		}
		if want := referenceTensor(tr); !slices.Equal(gt.t, want) {
			t.Fatalf("n=%d N0=%d ℓ=%d: orbit-built T differs from the all-triples reference", n, dc.N0, ell)
		}
		xs := []uint64{1, uint64(nParts), uint64(nParts) + 1, uint64(nParts) + 2, q - 1, uint64(data[0])<<40 | uint64(data[2])}
		rows, err := gt.EvaluateBlock(xs)
		if err != nil {
			t.Fatal(err)
		}
		e := tr.evaluator()
		for i, x := range xs {
			if want := e.atBasis(e.ea.Basis(x)); rows[i][0] != want {
				t.Fatalf("n=%d N0=%d ℓ=%d q=%d z0=%d: tensor %d, block %d", n, dc.N0, ell, q, x, rows[i][0], want)
			}
		}
	})
}

func pow(b, e int) int {
	out := 1
	for range e {
		out *= b
	}
	return out
}
