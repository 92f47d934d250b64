package camelot

// Benchmarks E01..E13 regenerate the per-theorem experiment measurements
// (the paper is an extended abstract with no numbered tables;
// cmd/experiments/main.go maps theorems to experiment ids). Run
//
//	go test -bench=. -benchmem .
//
// Absolute numbers are host-dependent; the claims under test are the
// *shapes*: proof sizes, total-work ratios against sequential baselines,
// 1/K per-node scaling, and verification costing one node's share.

import (
	"context"
	"fmt"
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
	"camelot/internal/matrix"
	"camelot/internal/orthvec"
	"camelot/internal/permanent"
	"camelot/internal/poly"
	"camelot/internal/rs"
	"camelot/internal/setcover"
	"camelot/internal/tensor"
	"camelot/internal/triangles"
	"camelot/internal/tutte"
)

// runFull executes a complete Camelot protocol round for benchmarking.
func runFull(b *testing.B, p core.Problem, opts core.Options) *core.Report {
	b.Helper()
	var rep *core.Report
	for i := 0; i < b.N; i++ {
		var err error
		_, rep, err = core.Run(context.Background(), p, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// --- E1: Theorem 1, k-clique Camelot vs sequential ---------------------------

func BenchmarkE01KCliqueCamelot(b *testing.B) {
	g := graph.Gnp(8, 0.7, 1)
	p, err := cliques.NewProblem(g, 6, tensor.Strassen())
	if err != nil {
		b.Fatal(err)
	}
	rep := runFull(b, p, core.Options{Nodes: 8, Seed: 1})
	b.ReportMetric(float64(rep.ProofSymbols), "proof-symbols")
}

func BenchmarkE01KCliqueSequentialNP(b *testing.B) {
	g := graph.Gnp(8, 0.7, 1)
	for i := 0; i < b.N; i++ {
		if _, err := cliques.CountNesetrilPoljak(g, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: Theorem 2/13, (6,2)-form circuits -----------------------------------

func benchForm(b *testing.B, n int) *cliques.Form {
	b.Helper()
	g := graph.Gnp(n, 0.7, 2)
	sm, err := cliques.BuildSubsetMatrix(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := ff.Must(1048583)
	chi, err := matrix.FromSlice(f, sm.N, sm.N, sm.Entries)
	if err != nil {
		b.Fatal(err)
	}
	form, err := cliques.NewUniformForm(f, chi)
	if err != nil {
		b.Fatal(err)
	}
	return form
}

func BenchmarkE02SixTwoForm(b *testing.B) {
	form := benchForm(b, 8)
	dc, _ := tensor.Strassen().ForSize(8)
	b.Run("nesetril-poljak-N4space", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = form.EvalNesetrilPoljak()
		}
	})
	b.Run("theorem13-parts-N2space", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := form.EvalParts(dc, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E3: Theorem 3, Camelot triangles ----------------------------------------

func BenchmarkE03TrianglesCamelot(b *testing.B) {
	for _, sz := range []struct {
		n int
		p float64
	}{{32, 0.15}, {32, 0.45}} {
		b.Run(fmt.Sprintf("n=%d/m~%.0f", sz.n, sz.p*float64(sz.n*(sz.n-1))/2), func(b *testing.B) {
			g := graph.Gnp(sz.n, sz.p, 7)
			p, err := triangles.NewProblem(g, tensor.Strassen())
			if err != nil {
				b.Fatal(err)
			}
			rep := runFull(b, p, core.Options{Nodes: 4, Seed: 2})
			b.ReportMetric(float64(p.NumParts()), "proof-parts")
			b.ReportMetric(float64(rep.Degree), "degree")
		})
	}
}

// --- E4: Theorem 4, split/sparse counting ------------------------------------

func BenchmarkE04TrianglesSplitSparse(b *testing.B) {
	g := graph.Gnp(96, 8.0/96, 3)
	b.Run("split-sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := triangles.CountSplitSparse(g, tensor.Strassen(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("itai-rodeh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := triangles.CountItaiRodeh(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E5: Theorem 5, AYZ bound --------------------------------------------------

func BenchmarkE05TrianglesAYZ(b *testing.B) {
	g := graph.Gnp(256, 6.0/256, 5)
	b.Run("ayz", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := triangles.CountAYZ(g, tensor.Strassen(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("itai-rodeh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := triangles.CountItaiRodeh(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E6: Theorem 6, chromatic polynomial --------------------------------------

func BenchmarkE06Chromatic(b *testing.B) {
	g := graph.Gnp(10, 0.4, 10)
	b.Run("camelot-2^{n/2}", func(b *testing.B) {
		p, err := chromatic.NewProblem(g)
		if err != nil {
			b.Fatal(err)
		}
		rep := runFull(b, p, core.Options{Nodes: 4, Seed: 1})
		b.ReportMetric(float64(rep.ProofSymbols), "proof-symbols")
	})
	b.Run("deletion-contraction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = chromatic.DeletionContraction(g)
		}
	})
}

// --- E7: Theorem 7, Tutte polynomial -------------------------------------------

func BenchmarkE07Tutte(b *testing.B) {
	mg := graph.RandomMultigraph(6, 8, 6)
	b.Run("camelot-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tutte.Compute(context.Background(), mg, core.Options{Nodes: 2, Seed: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deletion-contraction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tutte.DeletionContraction(mg)
		}
	})
}

// --- E8: Theorem 8, #CNFSAT / permanent / Hamilton -----------------------------

func BenchmarkE08CNFSAT(b *testing.B) {
	f := cnfsat.RandomFormula(14, 21, 3, 14)
	b.Run("camelot-2^{v/2}", func(b *testing.B) {
		p, err := cnfsat.NewProblem(f)
		if err != nil {
			b.Fatal(err)
		}
		runFull(b, p, core.Options{Nodes: 4, Seed: 3})
	})
	b.Run("brute-2^v", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = cnfsat.CountBrute(f)
		}
	})
}

func BenchmarkE08Permanent(b *testing.B) {
	a := make([][]int64, 12)
	for i := range a {
		a[i] = make([]int64, 12)
		for j := range a[i] {
			a[i][j] = int64((i*j + i + j) % 3)
		}
	}
	b.Run("camelot-2^{n/2}", func(b *testing.B) {
		p, err := permanent.NewProblem(a)
		if err != nil {
			b.Fatal(err)
		}
		runFull(b, p, core.Options{Nodes: 4, Seed: 4})
	})
	b.Run("ryser-2^n", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = permanent.Ryser(a)
		}
	})
}

func BenchmarkE08Hamilton(b *testing.B) {
	g := graph.Gnp(9, 0.6, 9)
	b.Run("camelot-2^{n/2}", func(b *testing.B) {
		p, err := hamilton.NewProblem(g)
		if err != nil {
			b.Fatal(err)
		}
		runFull(b, p, core.Options{Nodes: 4, Seed: 5})
	})
	b.Run("held-karp-2^n", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = hamilton.CountDP(g)
		}
	})
}

// --- E9: Theorems 9/10, set covers ----------------------------------------------

func BenchmarkE09SetCover(b *testing.B) {
	fam := []uint64{}
	full := uint64(1)<<10 - 1
	for i := uint64(1); len(fam) < 20; i += 37 {
		x := (i * i * 2654435761) & full
		if x != 0 {
			fam = append(fam, x)
		}
	}
	b.Run("camelot-covers", func(b *testing.B) {
		p, err := setcover.NewCoverProblem(fam, 10, 3)
		if err != nil {
			b.Fatal(err)
		}
		runFull(b, p, core.Options{Nodes: 4, Seed: 6})
	})
	b.Run("sequential-IE-2^n", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = setcover.CountCoversIE(fam, 10, 3)
		}
	})
}

// --- E10: Theorem 11, near-linear problems ---------------------------------------

func BenchmarkE10OV(b *testing.B) {
	const n, t = 128, 12
	am, _ := orthvec.NewBoolMatrix(n, t, RandomBoolMatrix(n, t, 0.3, 1))
	bm, _ := orthvec.NewBoolMatrix(n, t, RandomBoolMatrix(n, t, 0.3, 2))
	b.Run("camelot", func(b *testing.B) {
		p, err := orthvec.NewOVProblem(am, bm)
		if err != nil {
			b.Fatal(err)
		}
		runFull(b, p, core.Options{Nodes: 4, Seed: 7})
	})
	b.Run("naive-n^2t", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = orthvec.CountOrthogonalNaive(am, bm)
		}
	})
}

func BenchmarkE10Hamming(b *testing.B) {
	const n, t = 24, 6
	am, _ := orthvec.NewBoolMatrix(n, t, RandomBoolMatrix(n, t, 0.5, 3))
	bm, _ := orthvec.NewBoolMatrix(n, t, RandomBoolMatrix(n, t, 0.5, 4))
	p, err := orthvec.NewHammingProblem(am, bm)
	if err != nil {
		b.Fatal(err)
	}
	runFull(b, p, core.Options{Nodes: 4, Seed: 8})
}

func BenchmarkE10Conv3SUM(b *testing.B) {
	arr := make([]uint64, 32)
	for i := range arr {
		arr[i] = uint64(i + 1)
	}
	p, err := conv3sum.NewProblem(arr, 7)
	if err != nil {
		b.Fatal(err)
	}
	runFull(b, p, core.Options{Nodes: 4, Seed: 9})
}

// --- E11: Theorem 12, 2-CSP --------------------------------------------------------

func BenchmarkE11CSP(b *testing.B) {
	sys := csp.RandomSystem(12, 2, 8, 0.5, 11)
	p, err := csp.NewProblem(sys, tensor.Strassen())
	if err != nil {
		b.Fatal(err)
	}
	rep := runFull(b, p, core.Options{Nodes: 4, Seed: 10})
	b.ReportMetric(float64(rep.ProofSymbols), "proof-symbols")
}

// --- E12: framework robustness and verification -----------------------------------

func BenchmarkE12Robustness(b *testing.B) {
	g := graph.Gnp(24, 0.3, 9)
	p, err := triangles.NewProblem(g, tensor.Strassen())
	if err != nil {
		b.Fatal(err)
	}
	d := p.Degree()
	const k = 8
	f := 0
	for {
		e := d + 1 + 2*f
		if f >= (e+k-1)/k {
			break
		}
		f++
	}
	runFull(b, p, core.Options{
		Nodes: k, FaultTolerance: f, Adversary: core.NewEquivocatingNodes(1, 3),
		Seed: 1,
	})
}

func BenchmarkE12Verify(b *testing.B) {
	// Verification must cost about one node's single evaluation.
	g := graph.Gnp(24, 0.3, 9)
	p, err := triangles.NewProblem(g, tensor.Strassen())
	if err != nil {
		b.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := core.VerifyProof(p, proof, 1, int64(i))
		if err != nil || !ok {
			b.Fatalf("verify: ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkE12GaoDecode(b *testing.B) {
	// The per-node decode cost: e=2048 codeword with 200 corruptions.
	q, _, err := ff.NTTPrime(1<<20, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	ring := poly.NewRing(ff.Must(q))
	code, err := rs.New(ring, rs.ConsecutivePoints(2048), 1500)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]uint64, 1501)
	for i := range msg {
		msg[i] = uint64(i) * 31 % q
	}
	cw, err := code.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	rx := make([]uint64, len(cw))
	copy(rx, cw)
	for i := 0; i < 200; i++ {
		rx[i*10] = (rx[i*10] + 7) % q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := code.Decode(rx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E14: compiled-plan block evaluation vs per-point fallback ------------------------

// benchBatchVsPerPoint times one node's steady-state workload —
// evaluating a block of consecutive code points for one prime — through
// a compiled plan (compiled once, as a run's planner does per prime)
// and a loop over point-wise Evaluate, which pays the full per-prime
// setup on every point.
func benchBatchVsPerPoint(b *testing.B, p core.CompiledProblem, q uint64, points int) {
	xs := make([]uint64, points)
	for i := range xs {
		xs[i] = uint64(i)
	}
	f, err := ff.New(q)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := p.Compile(f)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pl.EvaluateBlock(xs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				if _, err := p.Evaluate(q, x); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkE14BatchPermanent(b *testing.B) {
	a := make([][]int64, 12)
	for i := range a {
		a[i] = make([]int64, 12)
		for j := range a[i] {
			a[i][j] = int64((i*j + i + j) % 3)
		}
	}
	p, err := permanent.NewProblem(a)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 128)
}

func BenchmarkE14BatchKClique(b *testing.B) {
	g := graph.Gnp(8, 0.7, 1)
	p, err := cliques.NewProblem(g, 6, tensor.Strassen())
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 128)
}

func BenchmarkE14BatchTriangles(b *testing.B) {
	g := graph.Gnp(48, 0.25, 7)
	p, err := triangles.NewProblem(g, tensor.Strassen())
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 128)
}

func BenchmarkE14BatchCNFSAT(b *testing.B) {
	f := cnfsat.RandomFormula(14, 21, 3, 14)
	p, err := cnfsat.NewProblem(f)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 128)
}

func BenchmarkE14BatchChromatic(b *testing.B) {
	g := graph.Gnp(10, 0.4, 10)
	p, err := chromatic.NewProblem(g)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 128)
}

func BenchmarkE14BatchSetCover(b *testing.B) {
	fam := []uint64{}
	full := uint64(1)<<10 - 1
	for i := uint64(1); len(fam) < 40; i += 37 {
		x := (i * i * 2654435761) & full
		if x != 0 {
			fam = append(fam, x)
		}
	}
	p, err := setcover.NewCoverProblem(fam, 10, 3)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 128)
}

func BenchmarkE14BatchTutte(b *testing.B) {
	mg := graph.RandomMultigraph(7, 10, 6)
	p, err := tutte.NewProblem(mg, 2)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 64)
}

func BenchmarkE14BatchHamilton(b *testing.B) {
	g := graph.Gnp(12, 0.5, 9)
	p, err := hamilton.NewProblem(g)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 64)
}

func BenchmarkE14BatchConv3SUM(b *testing.B) {
	arr := make([]uint64, 32)
	for i := range arr {
		arr[i] = uint64(i + 1)
	}
	p, err := conv3sum.NewProblem(arr, 7)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 128)
}

func BenchmarkE14BatchCSP(b *testing.B) {
	sys := csp.RandomSystem(12, 2, 8, 0.5, 11)
	p, err := csp.NewProblem(sys, tensor.Strassen())
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := ff.NTTPrime(p.MinModulus(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchVsPerPoint(b, p, q, 64)
}

// --- E16: batched proof verification --------------------------------------------------

// BenchmarkE16VerifyProofBatch compares the RLC batch verifier against the
// per-point spot-check audit path on a 64-point proof whose Evaluate is
// deliberately expensive (set cover over a 512-set family): the per-point
// verifier must re-evaluate the problem at every sampled point, while the
// batch check only touches the proof's own coefficient and evaluation
// tables. ISSUE 6 requires the batch path to win by >= 3x here.
func BenchmarkE16VerifyProofBatch(b *testing.B) {
	fam := make([]uint64, 512)
	for i := range fam {
		fam[i] = uint64(i % 64) // duplicates and the empty set are legal for covers
	}
	p, err := setcover.NewCoverProblem(fam, 6, 2)
	if err != nil {
		b.Fatal(err)
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 4, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	if !rep.Verified {
		b.Fatal("seed proof not verified")
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok, err := core.VerifyProofBatch(proof, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.Fatal("batch verifier rejected a valid proof")
			}
		}
	})
	b.Run("perpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok, err := core.VerifyProof(p, proof, 1, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.Fatal("per-point verifier rejected a valid proof")
			}
		}
	})
}

// --- E15: session-layer job throughput -----------------------------------------------

// mixedJobProblems builds a mixed E14-style service workload: several
// fresh counting problems per batch, the way a cluster sees a stream of
// inputs. Construction cost is part of the job on both sides of the
// comparison.
func mixedJobProblems(b *testing.B) []core.Problem {
	b.Helper()
	var problems []core.Problem
	for seed := int64(1); seed <= 3; seed++ {
		tp, err := triangles.NewProblem(graph.Gnp(24, 0.3, seed), tensor.Strassen())
		if err != nil {
			b.Fatal(err)
		}
		problems = append(problems, tp)
		a := make([][]int64, 8)
		for i := range a {
			a[i] = make([]int64, 8)
			for j := range a[i] {
				a[i][j] = int64((i*j + i + int(seed)) % 3)
			}
		}
		pp, err := permanent.NewProblem(a)
		if err != nil {
			b.Fatal(err)
		}
		problems = append(problems, pp)
		cp, err := cnfsat.NewProblem(cnfsat.RandomFormula(10, 15, 3, seed))
		if err != nil {
			b.Fatal(err)
		}
		problems = append(problems, cp)
		hp, err := hamilton.NewProblem(graph.Gnp(9, 0.5, seed))
		if err != nil {
			b.Fatal(err)
		}
		problems = append(problems, hp)
	}
	return problems
}

// BenchmarkJobsClusterThroughput runs the mixed workload as concurrent
// jobs on one warm cluster — the session serving pattern. Compare
// against BenchmarkJobsSequentialRun for the jobs/sec ratio.
func BenchmarkJobsClusterThroughput(b *testing.B) {
	cluster := NewCluster(WithNodes(2))
	defer cluster.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		problems := mixedJobProblems(b)
		jobs := make([]*Job, len(problems))
		for j, p := range problems {
			jobs[j] = cluster.Submit(ctx, p, WithSeed(1))
		}
		for _, job := range jobs {
			if _, _, err := job.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkJobsSequentialRun is the baseline the facade used to be: the
// same mixed workload through one-shot core.Run calls, rebuilding
// geometry per call, one job at a time.
func BenchmarkJobsSequentialRun(b *testing.B) {
	opts := core.Options{Nodes: 2, Seed: 1}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range mixedJobProblems(b) {
			if _, _, err := core.Run(ctx, p, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkJobsTutteConcurrentLines runs the facade's Tutte driver —
// m+1 Fortuin–Kasteleyn lines as concurrent jobs on the default
// cluster — against the sequential line loop below.
func BenchmarkJobsTutteConcurrentLines(b *testing.B) {
	mg := RandomMultigraph(6, 8, 6)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := TuttePolynomial(ctx, mg, WithNodes(2), WithSeed(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJobsTutteSequentialLines(b *testing.B) {
	mg := graph.RandomMultigraph(6, 8, 6)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := tutte.Compute(ctx, mg, core.Options{Nodes: 2, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: K-node tradeoff ------------------------------------------------------------

func BenchmarkE13Tradeoff(b *testing.B) {
	g := graph.Gnp(8, 0.7, 11)
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			p, err := cliques.NewProblem(g, 6, tensor.Strassen())
			if err != nil {
				b.Fatal(err)
			}
			rep := runFull(b, p, core.Options{Nodes: k, Seed: 6})
			b.ReportMetric(float64(rep.MaxNodeCompute.Microseconds())/1000, "pernode-ms")
			b.ReportMetric(float64(rep.CodeLength)/float64(k), "points-per-node")
		})
	}
}
