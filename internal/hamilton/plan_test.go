package hamilton

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/graph"
)

// isolatedZero returns Gnp(n, 0.5, seed) with every edge at vertex 0
// removed, so vertex 0 has an empty in-list.
func isolatedZero(n int, seed int64) *graph.Graph {
	g := graph.New(n)
	for _, e := range graph.Gnp(n, 0.5, seed).Edges() {
		if e[0] != 0 && e[1] != 0 {
			g.AddEdge(e[0], e[1])
		}
	}
	return g
}

// testGraphs are the graphs the block/point differential runs at each n.
func testGraphs(n int) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":    graph.New(n),
		"complete": graph.Complete(n),
		"gnp0.3":   graph.Gnp(n, 0.3, int64(n)),
		"gnp0.5":   graph.Gnp(n, 0.5, int64(n)),
		"isolated": isolatedZero(n, int64(n)),
	}
}

// blockPoints returns 130 points: the consecutive run 0..109, which
// starts with the grid 0..2^half-1 and carries on off it, then 20
// scattered residues ending in q-1. The blocks below are slices of it,
// so each point's Evaluate runs once.
func blockPoints(q uint64, seed int64) []uint64 {
	xs := make([]uint64, 0, 130)
	for x := uint64(0); x < 110; x++ {
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(seed))
	for len(xs) < 129 {
		xs = append(xs, rng.Uint64()%q)
	}
	return append(xs, q-1)
}

// checkPlanMatches verifies the compiled plan is bit-identical to
// per-point Evaluate on blocks of 1, 3, 64, 65 and 130 points and on the
// grid (a 65-point block is two strips of 33 and 32, a 130-point block
// three of 44, so strip boundaries fall inside consecutive runs), that
// the grid sums to directed, and that one shared plan instance survives
// concurrent EvaluateBlock calls (the race detector checks compiled
// state is read-only, scratch per call).
func checkPlanMatches(t *testing.T, p core.CompiledProblem, half int, directed *big.Int) {
	t.Helper()
	primes, err := core.ChoosePrimes(1, p.MinModulus(), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := primes[0]
	pl, err := p.Compile(ff.Must(q))
	if err != nil {
		t.Fatal(err)
	}
	all := blockPoints(q, int64(half))
	want := make([][]uint64, len(all))
	for i, x := range all {
		if want[i], err = p.Evaluate(q, x); err != nil {
			t.Fatal(err)
		}
	}
	grid := 1 << uint(half)
	for _, b := range [][2]int{{129, 130}, {127, 130}, {0, grid}, {40, 104}, {45, 110}, {0, 130}} {
		rows, err := pl.EvaluateBlock(all[b[0]:b[1]])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, want[b[0]:b[1]]) {
			for i, row := range rows {
				if !reflect.DeepEqual(row, want[b[0]+i]) {
					t.Fatalf("q=%d block [%d,%d) x=%d: block %v != point %v", q, b[0], b[1], all[b[0]+i], row, want[b[0]+i])
				}
			}
			t.Fatalf("q=%d block [%d,%d): %d rows, want %d", q, b[0], b[1], len(rows), b[1]-b[0])
		}
	}
	sum := new(big.Int)
	for _, row := range want[:grid] {
		sum.Add(sum, new(big.Int).SetUint64(row[0]))
	}
	qb := new(big.Int).SetUint64(q)
	if sum.Mod(sum, qb).Cmp(new(big.Int).Mod(directed, qb)) != 0 {
		t.Fatalf("q=%d: Σ P(i) over the grid = %v, want the directed count %v", q, sum, directed)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := pl.EvaluateBlock(all)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("q=%d: concurrent block diverged", q)
			}
		}()
	}
	wg.Wait()
}

// TestEvaluateBlockMatchesEvaluate: verification re-evaluates through
// Evaluate, so any plan divergence would break the protocol. The strip
// kernel drops vertices and edges per suffix and folds the signs by
// distributivity mod q; this checks it at the smallest n, at n whose
// grid fills a strip, and on graphs with no edges, every edge and an
// anchor with no in-edges, for both cycles and paths.
func TestEvaluateBlockMatchesEvaluate(t *testing.T) {
	for _, n := range []int{3, 4, 5, 10, 13} {
		for name, g := range testGraphs(n) {
			t.Run(fmt.Sprintf("cycles/n=%d/%s", n, name), func(t *testing.T) {
				p, err := NewProblem(g)
				if err != nil {
					t.Fatal(err)
				}
				checkPlanMatches(t, p, p.half, new(big.Int).Lsh(CountDP(g), 1))
			})
		}
	}
	for _, n := range []int{2, 3, 10, 13} {
		for name, g := range testGraphs(n) {
			t.Run(fmt.Sprintf("paths/n=%d/%s", n, name), func(t *testing.T) {
				p, err := NewPathProblem(g)
				if err != nil {
					t.Fatal(err)
				}
				checkPlanMatches(t, p, p.half, new(big.Int).Lsh(CountPathsDP(g), 1))
			})
		}
	}
}

// TestEvaluateBlockAllocations pins the arena: a 64-point block allocates
// the same few slices at n = 10 and n = 13, however many suffixes the
// strip kernel walks.
func TestEvaluateBlockAllocations(t *testing.T) {
	xs := make([]uint64, 64)
	for i := range xs {
		xs[i] = uint64(100 + i)
	}
	for _, n := range []int{10, 13} {
		g := graph.Gnp(n, 0.5, 1)
		cyc, err := NewProblem(g)
		if err != nil {
			t.Fatal(err)
		}
		pth, err := NewPathProblem(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []core.CompiledProblem{cyc, pth} {
			primes, err := core.ChoosePrimes(1, p.MinModulus(), 1)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := p.Compile(ff.Must(primes[0]))
			if err != nil {
				t.Fatal(err)
			}
			// totals, the arena and the rows EvaluateBlock returns.
			const maxAllocs = 3
			if a := testing.AllocsPerRun(10, func() {
				if _, err := pl.EvaluateBlock(xs); err != nil {
					t.Fatal(err)
				}
			}); a > maxAllocs {
				t.Errorf("%s: %v allocations per 64-point block, want at most %d", p.Name(), a, maxAllocs)
			}
		}
	}
}

// FuzzEvaluateBlock diffs both plans against Evaluate. The first byte
// chooses n in 3..10, the next bits the edge set (one per vertex pair),
// and each following pair of bytes a point: small values as they are,
// values from 0x8000 counted down from q.
func FuzzEvaluateBlock(f *testing.F) {
	f.Add([]byte{7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 31, 0, 32, 0, 0xff, 0xff})
	f.Add([]byte{0, 0x05, 1, 0, 2, 0, 9, 0})
	f.Add([]byte{3, 0x9e, 0x37, 0x01, 0x7f, 0x10, 0x00, 0x11, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 3 + int(data[0])%8
		data = data[1:]
		g := graph.New(n)
		pair := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if pair/8 < len(data) && data[pair/8]>>(pair%8)&1 == 1 {
					g.AddEdge(u, v)
				}
				pair++
			}
		}
		data = data[min(len(data), (pair+7)/8):]
		cyc, err := NewProblem(g)
		if err != nil {
			t.Fatal(err)
		}
		pth, err := NewPathProblem(g)
		if err != nil {
			t.Fatal(err)
		}
		primes, err := core.ChoosePrimes(1, cyc.MinModulus(), 1)
		if err != nil {
			t.Fatal(err)
		}
		q := primes[0]
		var xs []uint64
		for ; len(data) >= 2 && len(xs) < 8; data = data[2:] {
			v := uint64(binary.LittleEndian.Uint16(data))
			if v >= 0x8000 {
				v = q - (v - 0x7fff)
			}
			xs = append(xs, v)
		}
		for _, p := range []core.CompiledProblem{cyc, pth} {
			pl, err := p.Compile(ff.Must(q))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := pl.EvaluateBlock(xs)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(xs) {
				t.Fatalf("%s: %d rows for %d points", p.Name(), len(rows), len(xs))
			}
			for i, x := range xs {
				want, err := p.Evaluate(q, x)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rows[i], want) {
					t.Fatalf("%s x=%d: block %v != point %v", p.Name(), x, rows[i], want)
				}
			}
		}
	})
}

// BenchmarkEvaluateBlock times one node's block at the serve_cold
// geometry: hamilton n=10 p=0.5 over a 61-bit prime, where four nodes and
// two tolerated faults make 215 points and node 1 owns 54..107.
func BenchmarkEvaluateBlock(b *testing.B) {
	p, err := NewProblem(graph.Gnp(10, 0.5, 1))
	if err != nil {
		b.Fatal(err)
	}
	primes, err := core.ChoosePrimes(1, p.MinModulus(), 1)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := p.Compile(ff.Must(primes[0]))
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]uint64, 54)
	for i := range xs {
		xs[i] = uint64(54 + i)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := pl.EvaluateBlock(xs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(xs)), "µs/point")
}
