package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"

	"camelot"
	"camelot/internal/chromatic"
	"camelot/internal/cnfsat"
	"camelot/internal/graph"
	"camelot/internal/hamilton"
	"camelot/internal/permanent"
	"camelot/internal/setcover"
	"camelot/internal/tensor"
	"camelot/internal/triangles"
	"camelot/internal/tutte"
)

// runE6 sweeps the chromatic polynomial: Camelot degree/proof grows as
// |B|·2^{n/2-1} while the sequential baseline pays 2^n.
func runE6(quick bool) {
	sizes := []int{8, 10, 12}
	if quick {
		sizes = []int{8, 10}
	}
	fmt.Println("| n | m | DC baseline (ms) | camelot total (ms) | per-node max (ms) | degree (~2^{n/2}) | primes | agree |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, n := range sizes {
		g := graph.Gnp(n, 0.4, int64(n))
		var want []*big.Int
		dcTime := timed(func() { want = chromatic.DeletionContraction(g) })
		p, err := chromatic.NewProblem(g)
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(1))
		if err != nil {
			panic(err)
		}
		got, err := p.Coefficients(proof)
		if err != nil {
			panic(err)
		}
		agree := len(got) == len(want)
		for i := range want {
			agree = agree && got[i].Cmp(want[i]) == 0
		}
		fmt.Printf("| %d | %d | %s | %s | %s | %d | %d | %v |\n",
			n, g.M(), ms(dcTime), ms(rep.TotalNodeCompute), ms(rep.MaxNodeCompute),
			rep.Degree, len(rep.Primes), agree)
	}
}

// runE7 runs the full Tutte pipeline on small multigraphs: m+1
// Fortuin–Kasteleyn lines, each a width-(n+1) Camelot run with the
// tripartite node function.
func runE7(quick bool) {
	cases := []struct{ n, m int }{{5, 6}, {6, 8}}
	if quick {
		cases = cases[:1]
	}
	fmt.Println("| n | m | DC baseline (ms) | camelot (ms) | FK lines | degree (~2^{n/3}) | T(1,1) | agree |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, cse := range cases {
		mg := graph.RandomMultigraph(cse.n, cse.m, int64(cse.n))
		var want [][]*big.Int
		dcTime := timed(func() { want = tutte.DeletionContraction(mg) })
		var res *camelot.TutteResult
		camTime := timed(func() {
			var err error
			res, err = camelot.TuttePolynomial(context.Background(),
				camelot.RandomMultigraph(cse.n, cse.m, int64(cse.n)), // the same draw as mg
				camelot.WithNodes(2), camelot.WithSeed(2))
			if err != nil {
				panic(err)
			}
		})
		agree := tutteAgree(res.T, want)
		fmt.Printf("| %d | %d | %s | %s | %d | %d | %v | %v |\n",
			cse.n, cse.m, ms(dcTime), ms(camTime), len(res.Reports),
			res.Reports[0].Degree, tutte.Eval(res.T, 1, 1), agree)
	}
}

func tutteAgree(a, b [][]*big.Int) bool {
	coeff := func(m [][]*big.Int, i, j int) *big.Int {
		if i < len(m) && j < len(m[i]) {
			return m[i][j]
		}
		return big.NewInt(0)
	}
	rows := len(a)
	if len(b) > rows {
		rows = len(b)
	}
	for i := 0; i < rows; i++ {
		cols := 0
		if i < len(a) {
			cols = len(a[i])
		}
		if i < len(b) && len(b[i]) > cols {
			cols = len(b[i])
		}
		for j := 0; j < cols; j++ {
			if coeff(a, i, j).Cmp(coeff(b, i, j)) != 0 {
				return false
			}
		}
	}
	return true
}

// runE8 covers the three Theorem 8 problems: #CNFSAT, permanent, and
// Hamiltonian cycles, each against its classical 2^n-side baseline.
func runE8(quick bool) {
	fmt.Println("| problem | size | baseline (ms) | camelot per-node (ms) | proof symbols | agree |")
	fmt.Println("|---|---|---|---|---|---|")
	// #CNFSAT.
	vs := []int{12, 16}
	if quick {
		vs = []int{12}
	}
	for _, v := range vs {
		f := cnfsat.RandomFormula(v, 3*v/2, 3, int64(v))
		var want *big.Int
		bt := timed(func() { want = cnfsat.CountBrute(f) })
		p, err := cnfsat.NewProblem(f)
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(3))
		if err != nil {
			panic(err)
		}
		got, err := p.CountSolutions(proof)
		if err != nil {
			panic(err)
		}
		fmt.Printf("| #cnfsat | v=%d | %s | %s | %d | %v |\n",
			v, ms(bt), ms(rep.MaxNodeCompute), rep.ProofSymbols, got.Cmp(want) == 0)
	}
	// Permanent.
	ns := []int{10, 12}
	if quick {
		ns = []int{10}
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([][]int64, n)
		for i := range a {
			a[i] = make([]int64, n)
			for j := range a[i] {
				a[i][j] = rng.Int63n(3)
			}
		}
		var want *big.Int
		bt := timed(func() { want = permanent.Ryser(a) })
		p, err := permanent.NewProblem(a)
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(4))
		if err != nil {
			panic(err)
		}
		got, err := p.Recover(proof)
		if err != nil {
			panic(err)
		}
		fmt.Printf("| permanent | n=%d | %s | %s | %d | %v |\n",
			n, ms(bt), ms(rep.MaxNodeCompute), rep.ProofSymbols, got.Cmp(want) == 0)
	}
	// Hamiltonian cycles.
	hn := []int{9, 10}
	if quick {
		hn = []int{9}
	}
	for _, n := range hn {
		g := graph.Gnp(n, 0.6, int64(n))
		var want *big.Int
		bt := timed(func() { want = hamilton.CountDP(g) })
		p, err := hamilton.NewProblem(g)
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(5))
		if err != nil {
			panic(err)
		}
		got, err := p.RecoverUndirected(proof)
		if err != nil {
			panic(err)
		}
		fmt.Printf("| hamilton | n=%d | %s | %s | %d | %v |\n",
			n, ms(bt), ms(rep.MaxNodeCompute), rep.ProofSymbols, got.Cmp(want) == 0)
	}
}

// runE9 covers Theorems 9 and 10 on random set families.
func runE9(quick bool) {
	fmt.Println("| problem | n | family | t | IE baseline (ms) | camelot per-node (ms) | agree |")
	fmt.Println("|---|---|---|---|---|---|---|")
	ns := []int{10, 12}
	if quick {
		ns = []int{10}
	}
	rng := rand.New(rand.NewSource(21))
	for _, n := range ns {
		fam := make([]uint64, 0, 24)
		full := uint64(1)<<uint(n) - 1
		for len(fam) < 24 {
			x := rng.Uint64() & full
			if x != 0 {
				fam = append(fam, x)
			}
		}
		const t = 3
		var want *big.Int
		bt := timed(func() { want = setcover.CountCoversIE(fam, n, t) })
		p, err := setcover.NewCoverProblem(fam, n, t)
		if err != nil {
			panic(err)
		}
		proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(6))
		if err != nil {
			panic(err)
		}
		got, err := p.RecoverCovers(proof)
		if err != nil {
			panic(err)
		}
		fmt.Printf("| covers (Thm 9) | %d | %d | %d | %s | %s | %v |\n",
			n, len(fam), t, ms(bt), ms(rep.MaxNodeCompute), got.Cmp(want) == 0)
		// Exact covers with singletons added so partitions exist.
		exFam := append(append([]uint64(nil), fam...), singletons(n)...)
		var wantEx *big.Int
		bt = timed(func() { wantEx = setcover.CountExactCoversBrute(exFam, n, t) })
		pe, err := setcover.NewExactCoverProblem(exFam, n, t)
		if err != nil {
			panic(err)
		}
		proofE, repE, err := camelot.RunProblem(context.Background(), pe, camelot.WithNodes(4), camelot.WithSeed(7))
		if err != nil {
			panic(err)
		}
		gotEx, err := pe.RecoverTuples(proofE)
		if err != nil {
			panic(err)
		}
		fmt.Printf("| exact covers (Thm 10) | %d | %d | %d | %s | %s | %v |\n",
			n, len(exFam), t, ms(bt), ms(repE.MaxNodeCompute), gotEx.Cmp(wantEx) == 0)
	}
}

func singletons(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1 << uint(i)
	}
	return out
}

// runE12 demonstrates the framework guarantees: decoding succeeds with
// culprit identification up to the radius and fails loudly beyond it;
// forged proofs are rejected at the d/q rate.
func runE12(quick bool) {
	g := graph.Gnp(24, 0.3, 9)
	p, err := triangles.NewProblem(g, tensor.Strassen())
	if err != nil {
		panic(err)
	}
	d := p.Degree()
	const k = 8
	// Radius covering exactly two node blocks.
	f := 0
	for {
		e := d + 1 + 2*f
		if f >= 2*((e+k-1)/k) {
			break
		}
		f++
	}
	fmt.Println("| byzantine nodes | radius | outcome | identified |")
	fmt.Println("|---|---|---|---|")
	for _, bad := range [][]int{nil, {2}, {2, 5}, {1, 2, 5}} {
		opts := []camelot.Option{camelot.WithNodes(k), camelot.WithFaultTolerance(f), camelot.WithSeed(1)}
		if len(bad) > 0 {
			opts = append(opts, camelot.WithAdversary(camelot.LyingNodes(1, bad...)))
		}
		_, rep, err := camelot.RunProblem(context.Background(), p, opts...)
		outcome := "decoded+verified"
		identified := "-"
		if err != nil {
			outcome = "decode failed (expected beyond radius)"
		} else {
			identified = fmt.Sprintf("%v", rep.SuspectNodes)
		}
		fmt.Printf("| %v | %d | %s | %s |\n", bad, f, outcome, identified)
	}
	// Soundness: empirical forged-proof acceptance rate vs d/q.
	proof, _, err := camelot.RunProblem(context.Background(), p, camelot.WithSeed(2))
	if err != nil {
		panic(err)
	}
	q := proof.Primes[0]
	proof.Coeffs[q][0][0] = (proof.Coeffs[q][0][0] + 1) % q
	trials := 2000
	if quick {
		trials = 400
	}
	accepted := 0
	for seed := 0; seed < trials; seed++ {
		ok, err := camelot.VerifyProof(p, proof, 1, int64(seed))
		if err != nil {
			panic(err)
		}
		if ok {
			accepted++
		}
	}
	fmt.Printf("\nsoundness: forged proof accepted %d/%d trials (bound d/q = %d/%d = %.4f%%)\n",
		accepted, trials, d, q, 100*float64(d)/float64(q))
}
