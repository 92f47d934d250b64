package camelot

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"camelot/internal/chromatic"
	"camelot/internal/cliques"
	"camelot/internal/cnfsat"
	"camelot/internal/conv3sum"
	"camelot/internal/core"
	"camelot/internal/csp"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/hamilton"
	"camelot/internal/orthvec"
	"camelot/internal/permanent"
	"camelot/internal/setcover"
	"camelot/internal/tensor"
	"camelot/internal/triangles"
	"camelot/internal/tutte"
)

// planRow is one instance of TestPlansMatchEvaluate.
type planRow struct {
	name string
	p    core.CompiledProblem
	// grid is the first point past the instance's internal grid, where
	// the second cut of every length is centred; 0 centres it at 64.
	grid uint64
	// extra are points the shared set lacks. pastQ adds q and q+7,
	// points Evaluate and the plan must both reduce.
	extra []uint64
	pastQ bool
}

// TestPlansMatchEvaluate is the one check every problem's plan must pass:
// a node's EvaluateBlock and the verifier's Evaluate compute the same
// rows bit for bit, and one plan serves concurrent calls. Each row runs
// at the floor prime ChoosePrimes picks and at the largest prime below
// ff.MaxPrime. The points are the run 0..129, which crosses the grids
// (2^half, setcover's 2^n1, OV's 1..12, Hamming's 0..103), 20 seeded
// residues, q−2, q−1 and the row's extras; Evaluate runs once per point.
// At the floor prime eight goroutines share one plan over cuts of that
// list, read cyclically: 1, 63, 64 and 65 points from 0 and centred on
// the grid's end, so blocks start and end inside and outside the grid
// and on both sides of the plans' 64-point strips, and 197 points from
// 0, which hold the whole list and wrap back into the run. The other
// primes change the arithmetic, not the blocks, and evaluate the whole
// list as one block.
//
// For conv3sum, exact cover, chromatic and tutte, Evaluate is the plan
// at one point, so those rows hold the block path to the one-point path
// of the same formula, not to an independent one; ROADMAP item 3(a0)
// gives them a reference of their own without a change here.
//
// Rows are grouped by the kind before the first "/" of their name, so
// -run 'PlansMatchEvaluate/hamilton' runs one problem's rows.
func TestPlansMatchEvaluate(t *testing.T) {
	top := uint64(ff.MaxPrime - 1)
	for !ff.IsPrime(top) {
		top--
	}
	byKind := map[string][]planRow{}
	for _, row := range planRows(t) {
		kind, inst, _ := strings.Cut(row.name, "/")
		row.name = inst
		byKind[kind] = append(byKind[kind], row)
	}
	for kind, rows := range byKind {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					t.Parallel()
					floor, err := core.ChoosePrimes(1, row.p.MinModulus(), 0)
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range []uint64{floor[0], top} {
						checkPlan(t, row, q, q == floor[0])
					}
				})
			}
		})
	}
}

// checkPlan runs one row at the prime q, cutting blocks if floor.
func checkPlan(t *testing.T, row planRow, q uint64, floor bool) {
	pl, err := row.p.Compile(ff.Must(q))
	if err != nil {
		t.Fatalf("q=%d: %v", q, err)
	}
	xs := make([]uint64, 0, 160)
	for x := uint64(0); x < 130; x++ {
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(1))
	for range 20 {
		xs = append(xs, rng.Uint64()%q)
	}
	xs = append(append(xs, q-2, q-1), row.extra...)
	if row.pastQ {
		xs = append(xs, q, q+7)
	}
	want := make([][]uint64, len(xs))
	for i, x := range xs {
		if want[i], err = row.p.Evaluate(q, x); err != nil {
			t.Fatalf("q=%d: Evaluate(%d): %v", q, x, err)
		}
	}
	centre := 64
	if i := slices.Index(xs, row.grid); row.grid > 0 && i >= 0 {
		centre = i
	}
	type cut struct{ off, m int }
	cuts := []cut{{0, len(xs)}}
	if floor {
		cuts = []cut{{0, 197}}
		for _, m := range []int{1, 63, 64, 65} {
			cuts = append(cuts, cut{0, m}, cut{(centre - m/2 + len(xs)) % len(xs), m})
		}
	}
	check := func(c cut) error {
		block := make([]uint64, c.m)
		for i := range block {
			block[i] = xs[(c.off+i)%len(xs)]
		}
		rows, err := pl.EvaluateBlock(block)
		if err == nil && len(rows) != c.m {
			err = fmt.Errorf("%d rows", len(rows))
		}
		if err != nil {
			return fmt.Errorf("q=%d slice %d+%d: %v", q, c.off, c.m, err)
		}
		for i, got := range rows {
			if w := want[(c.off+i)%len(xs)]; !slices.Equal(got, w) {
				return fmt.Errorf("q=%d slice %d+%d x=%d: block %v, Evaluate %v", q, c.off, c.m, block[i], got, w)
			}
		}
		return nil
	}
	workers := min(8, len(cuts))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cuts); i += workers {
				if err := check(cuts[i]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// planRows builds every catalog kind at its defaults, then the
// instances the plans' own tests held to Evaluate before this table:
// the permanent's vanishing rows and negative entries, Hamiltonian
// cycles and paths on empty, complete, random and anchor-isolated
// graphs, the triangle and clique geometries, set-cover families with
// duplicate and overlapping sets, OV and Hamming across their grids,
// and the problems outside the catalog (Hamming, exact cover, tutte
// lines, Hamiltonian paths).
func planRows(t *testing.T) []planRow {
	var rows []planRow
	add := func(name string, grid uint64, extra ...uint64) func(core.CompiledProblem, error) {
		return func(p core.CompiledProblem, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rows = append(rows, planRow{name: name, p: p, grid: grid, extra: extra})
		}
	}
	pastQ := func() { rows[len(rows)-1].pastQ = true }

	for _, k := range Kinds() {
		w, err := ParseWorkload(k.Name)
		if err != nil {
			t.Fatal(err)
		}
		cp, ok := w.Problem.(core.CompiledProblem)
		if !ok {
			t.Fatalf("%s does not compile", k.Name)
		}
		add("catalog/"+k.Name, 0)(cp, nil)
	}

	rng := rand.New(rand.NewSource(17))
	matrix := func(n int) [][]int64 {
		a := make([][]int64, n)
		for i := range a {
			a[i] = make([]int64, n)
			for j := range a[i] {
				a[i][j] = rng.Int63n(7) - 3
			}
		}
		return a
	}
	zeroRow := matrix(6)
	clear(zeroRow[2])
	zeroCol := matrix(6)
	for _, r := range zeroCol {
		r[5] = 0 // a suffix column: the Gray steps that flip it change nothing
	}
	add("permanent/zero-row", 8, 99991)(permanent.NewProblem(zeroRow))
	pastQ()
	add("permanent/zero-col", 8, 99991)(permanent.NewProblem(zeroCol))
	pastQ()
	for _, n := range []int{2, 3, 4, 7, 12, 13} {
		add(fmt.Sprintf("permanent/n=%d", n), 1<<(n/2), 99991)(permanent.NewProblem(matrix(n)))
		pastQ()
	}

	type namedGraph struct {
		name string
		g    *graph.Graph
	}
	hamiltonGraphs := func(n int) []namedGraph {
		anchor := graph.New(n) // G(n, 0.5) with vertex 0 isolated
		for _, e := range graph.Gnp(n, 0.5, int64(n)).Edges() {
			if e[0] != 0 && e[1] != 0 {
				anchor.AddEdge(e[0], e[1])
			}
		}
		return []namedGraph{
			{"empty", graph.New(n)}, {"complete", graph.Complete(n)},
			{"gnp0.3", graph.Gnp(n, 0.3, int64(n))}, {"gnp0.5", graph.Gnp(n, 0.5, int64(n))},
			{"isolated", anchor},
		}
	}
	for _, n := range []int{3, 4, 5, 10, 13} {
		for _, g := range hamiltonGraphs(n) {
			add(fmt.Sprintf("hamilton/cycles/n=%d/%s", n, g.name), 1<<((n-1)/2))(hamilton.NewProblem(g.g))
		}
	}
	for _, n := range []int{2, 3, 10, 13} {
		for _, g := range hamiltonGraphs(n) {
			add(fmt.Sprintf("hamilton/paths/n=%d/%s", n, g.name), 1<<(n/2))(hamilton.NewPathProblem(g.g))
		}
	}

	for _, g := range []namedGraph{{"sparse", graph.Gnp(48, 4.0/48, 3)}, {"dense", graph.Gnp(20, 0.5, 4)}} {
		p, err := triangles.NewProblem(g.g, tensor.Strassen())
		if err != nil {
			t.Fatal(err)
		}
		nParts := uint64(p.Degree()/3 + 1) // the trace grid 0..nParts-1
		add("triangles/"+g.name, nParts, nParts, nParts+1)(p, nil)
		pastQ()
	}
	add("cliques/gnp8", 343, 343, 344, 99991)(cliques.NewProblem(graph.Gnp(8, 0.7, 19), 6, tensor.Strassen()))

	rng = rand.New(rand.NewSource(9))
	family := func(n, size int) []uint64 {
		var fam []uint64
		for len(fam) < size {
			if x := rng.Uint64() & (1<<n - 1); x != 0 {
				fam = append(fam, x)
			}
		}
		return fam
	}
	for _, fc := range []struct {
		name string
		n    int
		fam  []uint64
	}{
		{"random7", 7, family(7, 6)},
		{"dupes5", 5, []uint64{0b10101, 0b10101, 0b00011, 0b11000, 0b00100}},
		{"single6", 6, []uint64{0b111111}},
		{"overlaps6", 6, family(6, 10)},
	} {
		for _, tt := range []int{1, 3} {
			add(fmt.Sprintf("setcover/cover/%s/t=%d", fc.name, tt), 1<<((fc.n+1)/2), 777)(setcover.NewCoverProblem(fc.fam, fc.n, tt))
			add(fmt.Sprintf("setcover/exact/%s/t=%d", fc.name, tt), 0, 777)(setcover.NewExactCoverProblem(fc.fam, fc.n, tt))
		}
	}
	add("setcover/exact/family8/t=3", 0)(setcover.NewExactCoverProblem(randomFamily(8, 20, 1), 8, 3))

	rng = rand.New(rand.NewSource(23))
	boolMatrix := func(n int) *orthvec.BoolMatrix {
		bits := make([]uint8, n*7)
		for i := range bits {
			if rng.Float64() < 0.4 {
				bits[i] = 1
			}
		}
		m, err := orthvec.NewBoolMatrix(n, 7, bits)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := boolMatrix(12)
	b := boolMatrix(15)
	add("orthvec/ov", 13, 54321)(orthvec.NewOVProblem(a, b))
	add("orthvec/hamming", 104, 54321)(orthvec.NewHammingProblem(a, b))
	am, bm, err := boolMatrices(24, 6, RandomBoolMatrix(24, 6, 0.3, 1), RandomBoolMatrix(24, 6, 0.3, 2))
	if err != nil {
		t.Fatal(err)
	}
	add("orthvec/hamming24x6", 0)(orthvec.NewHammingProblem(am, bm))
	add("cnfsat/vars=9", 33, 54321)(cnfsat.NewProblem(cnfsat.RandomFormula(9, 12, 3, 5)))

	for name, g := range map[string]*graph.Graph{
		"gnp8": graph.Gnp(8, 0.4, 1), "cycle7": graph.Cycle(7), "k5": graph.Complete(5),
	} {
		add("chromatic/"+name, 0, 1<<19)(chromatic.NewProblem(g))
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nums := make([]uint64, 10)
		for i := range nums {
			nums[i] = rng.Uint64() % (1 << 4)
		}
		add(fmt.Sprintf("conv3sum/seed=%d", seed), 0, 54321, 1<<19)(conv3sum.NewProblem(nums, 5))
	}
	for seed := int64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("csp/seed=%d", seed), 0, 54321, 1<<19)(csp.NewProblem(csp.RandomSystem(6, 2, 5, 0.5, seed), tensor.Strassen()))
		for _, r := range []uint64{1, 3} {
			add(fmt.Sprintf("tutte/seed=%d/r=%d", seed, r), 0, 54321, 1<<19)(tutte.NewProblem(graph.RandomMultigraph(6, 8, seed), r))
		}
	}
	add("tutte/seed=1/r=2", 0)(tutte.NewProblem(graph.RandomMultigraph(6, 8, 1), 2))
	return rows
}
