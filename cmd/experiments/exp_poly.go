package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"camelot"
	"camelot/internal/cliques"
	"camelot/internal/conv3sum"
	"camelot/internal/csp"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/matrix"
	"camelot/internal/orthvec"
	"camelot/internal/tensor"
	"camelot/internal/triangles"
)

// timed runs fn and returns its wall-clock duration.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// ms renders a duration in milliseconds with a stable width.
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

// runE1 sweeps 6-clique instances: the Camelot run must stay within a
// constant factor of the Nešetřil–Poljak sequential total while adding
// distribution + verifiability, with proof size O(n^{ωk/6}) = O(R).
func runE1(quick bool) {
	sizes := []int{8, 9, 10}
	if quick {
		sizes = []int{8}
	}
	fmt.Println("| n | count | seq NP (ms) | camelot total (ms) | per-node max (ms) | nodes | proof symbols | verify/trial (ms) |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, n := range sizes {
		g := graph.Gnp(n, 0.7, int64(n))
		var seqCount interface{ String() string }
		seqTime := timed(func() {
			c, err := cliques.CountNesetrilPoljak(g, 6)
			if err != nil {
				panic(err)
			}
			seqCount = c
		})
		p, err := cliques.NewProblem(g, 6, tensor.Strassen())
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(8), camelot.WithSeed(1))
		if err != nil {
			panic(err)
		}
		count, err := p.Recover(proof)
		if err != nil {
			panic(err)
		}
		if count.String() != seqCount.String() {
			panic(fmt.Sprintf("E1 mismatch at n=%d: %v vs %v", n, count, seqCount))
		}
		fmt.Printf("| %d | %v | %s | %s | %s | %d | %d | %s |\n",
			n, count, ms(seqTime), ms(rep.TotalNodeCompute), ms(rep.MaxNodeCompute),
			rep.Nodes, rep.ProofSymbols, ms(rep.VerifyPerTrial))
	}
}

// runE2 compares the three (6,2)-form circuits: direct O(N^6),
// Nešetřil–Poljak O(N^{2ω}) time / O(N^4) space, and the new Theorem 13
// parts design with O(N²) space — allocation deltas stand in for space.
func runE2(quick bool) {
	sizes := []int{4, 8}
	if quick {
		sizes = []int{4}
	}
	fmt.Println("| N | direct (ms) | NP (ms) | NP allocs (MB) | parts (ms) | parts allocs (MB) | agree |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, n := range sizes {
		g := graph.Gnp(n, 0.7, int64(n))
		sm, err := cliques.BuildSubsetMatrix(g, 1)
		if err != nil {
			panic(err)
		}
		f := ff.Must(1048583)
		chi, err := matrix.FromSlice(f, sm.N, sm.N, sm.Entries)
		if err != nil {
			panic(err)
		}
		form, err := cliques.NewUniformForm(f, chi)
		if err != nil {
			panic(err)
		}
		var direct, np, parts uint64
		dt := timed(func() { direct = form.EvalDirect() })
		npAlloc := allocDelta(func() { np = form.EvalNesetrilPoljak() })
		npt := lastTimed
		dc, _ := tensor.Strassen().ForSize(sm.N)
		partsAlloc := allocDelta(func() {
			var err error
			parts, err = form.EvalParts(dc, 1)
			if err != nil {
				panic(err)
			}
		})
		pt := lastTimed
		fmt.Printf("| %d | %s | %s | %.2f | %s | %.2f | %v |\n",
			sm.N, ms(dt), ms(npt), npAlloc, ms(pt), partsAlloc, direct == np && np == parts)
	}
}

var lastTimed time.Duration

// allocDelta measures heap allocation (MB) and wall time of fn.
func allocDelta(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lastTimed = timed(fn)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// runE3 sweeps triangle instances: Theorem 3 predicts proof size ~ R/m
// (falling as the graph densifies at fixed n) and per-node time Õ(m).
func runE3(quick bool) {
	sizes := []struct {
		n int
		p float64
	}{{32, 0.15}, {32, 0.45}, {64, 0.1}, {64, 0.3}}
	if quick {
		sizes = sizes[:2]
	}
	fmt.Println("| n | m | proof parts R/m' | degree | per-node max (ms) | seq Itai-Rodeh (ms) | count |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, sz := range sizes {
		g := graph.Gnp(sz.n, sz.p, 7)
		var seq uint64
		seqTime := timed(func() {
			var err error
			seq, err = triangles.CountItaiRodeh(g)
			if err != nil {
				panic(err)
			}
		})
		p, err := triangles.NewProblem(g, tensor.Strassen())
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(2))
		if err != nil {
			panic(err)
		}
		count, err := p.Recover(proof)
		if err != nil {
			panic(err)
		}
		if count.Uint64() != seq {
			panic("E3 count mismatch")
		}
		fmt.Printf("| %d | %d | %d | %d | %s | %s | %v |\n",
			sz.n, g.M(), p.NumParts(), rep.Degree, ms(rep.MaxNodeCompute), ms(seqTime), count)
	}
}

// runE4 compares Theorem 4's split/sparse counter with the dense trace
// and the word-parallel edge iterator.
func runE4(quick bool) {
	sizes := []int{48, 96, 128}
	if quick {
		sizes = []int{48}
	}
	fmt.Println("| n | m | split/sparse (ms) | itai-rodeh (ms) | edge-iter (ms) | agree |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, n := range sizes {
		g := graph.Gnp(n, 8/float64(n), 3)
		var ss, ir, ei uint64
		st := timed(func() {
			var err error
			ss, err = triangles.CountSplitSparse(g, tensor.Strassen(), 0)
			if err != nil {
				panic(err)
			}
		})
		it := timed(func() {
			var err error
			ir, err = triangles.CountItaiRodeh(g)
			if err != nil {
				panic(err)
			}
		})
		et := timed(func() { ei = triangles.CountEdgeIterator(g) })
		fmt.Printf("| %d | %d | %s | %s | %s | %v |\n",
			n, g.M(), ms(st), ms(it), ms(et), ss == ir && ir == ei)
	}
}

// runE5 exercises Theorem 5 on sparse graphs: Δ = m^{(ω-1)/(ω+1)}
// splits the work; the AYZ count must agree with the dense methods.
func runE5(quick bool) {
	sizes := []int{64, 128, 256}
	if quick {
		sizes = []int{64}
	}
	fmt.Println("| n | m | Δ | AYZ (ms) | itai-rodeh (ms) | agree |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, n := range sizes {
		g := graph.Gnp(n, 6/float64(n), 5)
		var ayz, ir uint64
		at := timed(func() {
			var err error
			ayz, err = triangles.CountAYZ(g, tensor.Strassen(), 0)
			if err != nil {
				panic(err)
			}
		})
		it := timed(func() {
			var err error
			ir, err = triangles.CountItaiRodeh(g)
			if err != nil {
				panic(err)
			}
		})
		fmt.Printf("| %d | %d | %d | %s | %s | %v |\n",
			n, g.M(), triangles.Delta(g.M()), ms(at), ms(it), ayz == ir)
	}
}

// runE10 sweeps the near-linear-time problems of Theorem 11.
func runE10(quick bool) {
	fmt.Println("| problem | n | t | naive (ms) | camelot per-node (ms) | proof symbols | agree |")
	fmt.Println("|---|---|---|---|---|---|---|")
	ovSizes := []int{64, 128}
	if quick {
		ovSizes = []int{64}
	}
	for _, n := range ovSizes {
		const t = 12
		a, _ := orthvec.NewBoolMatrix(n, t, camelot.RandomBoolMatrix(n, t, 0.3, 1))
		b, _ := orthvec.NewBoolMatrix(n, t, camelot.RandomBoolMatrix(n, t, 0.3, 2))
		var naive []int64
		nt := timed(func() { naive = orthvec.CountOrthogonalNaive(a, b) })
		p, err := orthvec.NewOVProblem(a, b)
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(3))
		if err != nil {
			panic(err)
		}
		counts, err := p.Counts(proof)
		if err != nil {
			panic(err)
		}
		agree := true
		for i := range counts {
			agree = agree && counts[i] == naive[i]
		}
		fmt.Printf("| orthogonal-vectors | %d | %d | %s | %s | %d | %v |\n",
			n, t, ms(nt), ms(rep.MaxNodeCompute), rep.ProofSymbols, agree)
	}
	// Hamming distribution.
	{
		const n, t = 24, 6
		a, _ := orthvec.NewBoolMatrix(n, t, camelot.RandomBoolMatrix(n, t, 0.5, 4))
		b, _ := orthvec.NewBoolMatrix(n, t, camelot.RandomBoolMatrix(n, t, 0.5, 5))
		var naive [][]int64
		nt := timed(func() { naive = orthvec.HammingDistributionNaive(a, b) })
		p, err := orthvec.NewHammingProblem(a, b)
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(4))
		if err != nil {
			panic(err)
		}
		dist, err := p.Distribution(proof)
		if err != nil {
			panic(err)
		}
		agree := true
		for i := range dist {
			for h := range dist[i] {
				agree = agree && dist[i][h] == naive[i][h]
			}
		}
		fmt.Printf("| hamming-distribution | %d | %d | %s | %s | %d | %v |\n",
			n, t, ms(nt), ms(rep.MaxNodeCompute), rep.ProofSymbols, agree)
	}
	// Convolution3SUM.
	{
		arr := arrayIdentity(24)
		var naive []int64
		nt := timed(func() { naive = conv3sum.CountNaive(arr) })
		p, rep, counts := conv3sumRun(arr, 6)
		agree := true
		for i := range counts {
			agree = agree && counts[i] == naive[i]
		}
		_ = p
		fmt.Printf("| convolution-3sum | %d | %d | %s | %s | %d | %v |\n",
			len(arr), 6, ms(nt), ms(rep.MaxNodeCompute), rep.ProofSymbols, agree)
	}
}

// runE11 runs the 2-CSP enumeration of Theorem 12.
func runE11(quick bool) {
	fmt.Println("| n | σ | m | brute (ms) | camelot per-node (ms) | proof symbols | agree |")
	fmt.Println("|---|---|---|---|---|---|---|")
	cases := []struct{ n, sigma, m int }{{6, 3, 6}, {12, 2, 8}}
	if quick {
		cases = cases[:1]
	}
	for _, cse := range cases {
		sys := csp.RandomSystem(cse.n, cse.sigma, cse.m, 0.5, 9)
		var brute []fmt.Stringer
		bt := timed(func() {
			for _, v := range csp.DistributionBrute(sys) {
				brute = append(brute, v)
			}
		})
		p, err := csp.NewProblem(sys, tensor.Strassen())
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(5))
		if err != nil {
			panic(err)
		}
		dist, err := p.Distribution(proof)
		if err != nil {
			panic(err)
		}
		agree := true
		for k := range dist {
			agree = agree && dist[k].String() == brute[k].String()
		}
		fmt.Printf("| %d | %d | %d | %s | %s | %d | %v |\n",
			cse.n, cse.sigma, cse.m, ms(bt), ms(rep.MaxNodeCompute), rep.ProofSymbols, agree)
	}
}

// runE13 sweeps the node count on a fixed 6-clique instance: the paper's
// optimal tradeoff predicts per-node time E ≈ T/K up to the proof size.
func runE13(quick bool) {
	ks := []int{1, 2, 4, 8, 16}
	if quick {
		ks = []int{1, 4}
	}
	g := graph.Gnp(8, 0.7, 11)
	fmt.Println("| K | e points | points/node | per-node max (ms) | total (ms) | speedup vs K=1 |")
	fmt.Println("|---|---|---|---|---|---|")
	var base time.Duration
	for _, k := range ks {
		p, err := cliques.NewProblem(g, 6, tensor.Strassen())
		if err != nil {
			panic(err)
		}
		_, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(k), camelot.WithSeed(6))
		if err != nil {
			panic(err)
		}
		if k == 1 {
			base = rep.MaxNodeCompute
		}
		speedup := float64(base) / float64(rep.MaxNodeCompute)
		fmt.Printf("| %d | %d | %d | %s | %s | %.2fx |\n",
			k, rep.CodeLength, (rep.CodeLength+k-1)/k, ms(rep.MaxNodeCompute),
			ms(rep.TotalNodeCompute), speedup)
	}
}
