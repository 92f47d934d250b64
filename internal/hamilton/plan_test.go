package hamilton

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"reflect"
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

// testGraphs are the graphs the grid-sum check runs at each n.
func testGraphs(n int) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":    graph.New(n),
		"complete": graph.Complete(n),
		"gnp0.3":   graph.Gnp(n, 0.3, int64(n)),
		"gnp0.5":   graph.Gnp(n, 0.5, int64(n)),
		"isolated": isolatedZero(n, int64(n)),
	}
}

// TestGridSumIsTwiceTheCount: Σ P(i) over the grid 0..2^half-1 counts
// the directed Hamiltonian cycles (paths), twice the undirected count,
// on graphs with no edges, every edge and an anchor with no in-edges,
// at the smallest n and at n whose grid fills a strip. P is the
// verifier's Evaluate; camelot's TestPlansMatchEvaluate holds the
// compiled plans to it on these graphs.
func TestGridSumIsTwiceTheCount(t *testing.T) {
	check := func(name string, p core.Problem, half int, undirected *big.Int) {
		primes, err := core.ChoosePrimes(1, p.MinModulus(), 1)
		if err != nil {
			t.Fatal(err)
		}
		f := ff.Must(primes[0])
		sum := uint64(0)
		for x := uint64(0); x < 1<<uint(half); x++ {
			v, err := p.Evaluate(f.Q, x)
			if err != nil {
				t.Fatal(err)
			}
			sum = f.Add(sum, v[0])
		}
		directed := new(big.Int).Lsh(undirected, 1)
		if want := directed.Mod(directed, new(big.Int).SetUint64(f.Q)).Uint64(); sum != want {
			t.Errorf("%s: Σ P(i) over the grid = %d mod %d, want the directed count %d", name, sum, f.Q, want)
		}
	}
	for _, n := range []int{3, 4, 5, 10, 13} {
		for name, g := range testGraphs(n) {
			p, err := NewProblem(g)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("cycles/n=%d/%s", n, name), p, p.half, CountDP(g))
		}
	}
	for _, n := range []int{2, 3, 10, 13} {
		for name, g := range testGraphs(n) {
			p, err := NewPathProblem(g)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("paths/n=%d/%s", n, name), p, p.half, CountPathsDP(g))
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
