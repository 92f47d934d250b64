package camelot

// Ablation benchmarks for three design choices:
// the matrix-multiplication tensor decomposition (Strassen ω≈2.807 vs
// classical ω=3), identical vs equivocated received words, and the
// NTT-vs-Karatsuba polynomial multiplication path.

import (
	"math/rand"
	"testing"

	"camelot/internal/cliques"
	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/poly"
	"camelot/internal/tensor"
	"camelot/internal/triangles"
)

// BenchmarkAblationTensorCliques isolates the ω choice on the clique
// proof: Strassen shrinks R (and hence the proof/codeword) at the cost
// of padding N to a power of 2.
func BenchmarkAblationTensorCliques(b *testing.B) {
	g := graph.Gnp(8, 0.7, 1)
	for _, tc := range []struct {
		name string
		base tensor.Decomposition
	}{
		{"strassen-w2.807", tensor.Strassen()},
		{"trivial2-w3", tensor.Trivial(2)},
		{"trivial8-w3-nopad", tensor.Trivial(8)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, err := cliques.NewProblem(g, 6, tc.base)
			if err != nil {
				b.Fatal(err)
			}
			rep := runFull(b, p, core.Options{Nodes: 2, Seed: 1})
			b.ReportMetric(float64(rep.ProofSymbols), "proof-symbols")
		})
	}
}

// BenchmarkAblationTensorTriangles does the same for the sparse triangle
// proof, where the rank also determines the part structure.
func BenchmarkAblationTensorTriangles(b *testing.B) {
	g := graph.Gnp(32, 0.2, 2)
	for _, tc := range []struct {
		name string
		base tensor.Decomposition
	}{
		{"strassen-w2.807", tensor.Strassen()},
		{"trivial2-w3", tensor.Trivial(2)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, err := triangles.NewProblem(g, tc.base)
			if err != nil {
				b.Fatal(err)
			}
			rep := runFull(b, p, core.Options{Nodes: 2, Seed: 2})
			b.ReportMetric(float64(rep.ProofSymbols), "proof-symbols")
		})
	}
}

// BenchmarkAblationReceivedWords shows the property the decode stage's
// cost depends on: a consistent liar shows every honest node the same
// word, so each (prime, coordinate) decodes once; an equivocator shows
// each of them a different one, and each is decoded (paper footnote 7).
func BenchmarkAblationReceivedWords(b *testing.B) {
	g := graph.Gnp(24, 0.3, 3)
	p, err := triangles.NewProblem(g, tensor.Strassen())
	if err != nil {
		b.Fatal(err)
	}
	// The smallest f whose radius covers one node's whole block of
	// ⌈e/K⌉ points, e = d+1+2f.
	const k = 8
	f := 0
	for f < (p.Degree()+1+2*f+k-1)/k {
		f++
	}
	for _, tc := range []struct {
		name string
		adv  core.Adversary
	}{
		{"consistent-liar", core.NewLyingNodes(7, 3)},
		{"equivocator", core.NewEquivocatingNodes(7, 3)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rep := runFull(b, p, core.Options{Nodes: k, FaultTolerance: f, Adversary: tc.adv, Seed: 3})
			b.ReportMetric(float64(rep.Decodes), "decodes")
		})
	}
}

// BenchmarkAblationPolyMul compares the NTT path (available because the
// framework picks NTT-friendly primes) against forced Karatsuba, at the
// codeword sizes the decoders actually see.
func BenchmarkAblationPolyMul(b *testing.B) {
	const deg = 2047
	rng := rand.New(rand.NewSource(4))
	// NTT-friendly prime vs a prime with two-adicity 1.
	qNTT, _, err := ff.NTTPrime(1<<20, 1<<13)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    uint64
	}{
		{"ntt-prime", qNTT},
		{"generic-prime-karatsuba", 1000003},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ring := poly.NewRing(ff.Must(tc.q))
			f := ff.Must(tc.q)
			x := make([]uint64, deg+1)
			y := make([]uint64, deg+1)
			for i := range x {
				x[i] = rng.Uint64() % f.Q
				y[i] = rng.Uint64() % f.Q
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ring.Mul(x, y)
			}
		})
	}
}
