package camelot_test

import (
	"context"
	"fmt"
	"log"

	"camelot"
)

// ExampleCountTriangles prepares, error-corrects, and verifies a
// triangle count over a 3-node community.
func ExampleCountTriangles() {
	g := camelot.CompleteGraph(6) // C(6,3) = 20 triangles
	count, report, err := camelot.CountTriangles(context.Background(), g,
		camelot.WithNodes(3), camelot.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("triangles:", count)
	fmt.Println("verified:", report.Verified)
	// Output:
	// triangles: 20
	// verified: true
}

// ExampleCountCliques survives a lying node: the adversary corrupts a
// whole node block, the decoders fix it and name the culprit.
func ExampleCountCliques() {
	g := camelot.CompleteGraph(8)
	count, report, err := camelot.CountCliques(context.Background(), g, 6,
		camelot.WithNodes(8),
		camelot.WithFaultTolerance(200), // covers one node's ~179 shares
		camelot.WithAdversary(camelot.LyingNodes(7, 3)),
		camelot.WithSeed(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("six-cliques:", count)
	fmt.Println("suspects:", report.SuspectNodes)
	// Output:
	// six-cliques: 28
	// suspects: [3]
}

// ExampleChromaticPolynomial recovers exact integer coefficients.
func ExampleChromaticPolynomial() {
	coeffs, _, err := camelot.ChromaticPolynomial(context.Background(), camelot.CycleGraph(4))
	if err != nil {
		log.Fatal(err)
	}
	// χ_{C4}(t) = t^4 - 4t^3 + 6t^2 - 3t
	fmt.Println(coeffs)
	// Output:
	// [0 -3 6 -4 1]
}

// ExampleCluster shows the session API: one long-lived cluster serving
// several counting problems as concurrent jobs.
func ExampleCluster() {
	cluster := camelot.NewCluster(camelot.WithNodes(2))
	defer cluster.Close()

	type submission struct {
		problem camelot.CountingProblem
		job     *camelot.Job
	}
	var subs []submission
	for _, n := range []int{5, 6, 7} {
		p, err := camelot.NewTriangleProblem(camelot.CompleteGraph(n))
		if err != nil {
			log.Fatal(err)
		}
		subs = append(subs, submission{problem: p, job: cluster.Submit(context.Background(), p, camelot.WithSeed(1))})
	}
	for i, s := range subs {
		proof, _, err := s.job.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		count, err := s.problem.Count(proof)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("K%d triangles: %v\n", i+5, count)
	}
	// Output:
	// K5 triangles: 10
	// K6 triangles: 20
	// K7 triangles: 35
}

// ExampleVerifyProof is the Merlin–Arthur reading of every Camelot
// algorithm (paper §1.2): Merlin supplies the proof — here prepared
// honestly by a single node, then forged — and Arthur checks it with
// random evaluations, each costing no more than one Knight's share of
// the work. A forged proof survives a trial with probability at most
// d/q, and q is at least 2^61.
func ExampleVerifyProof() {
	// The claim: the permanent of a 10×10 0/1 matrix.
	a := make([][]int64, 10)
	for i := range a {
		a[i] = make([]int64, 10)
		for j := range a[i] {
			if (i+j)%3 != 0 {
				a[i][j] = 1
			}
		}
	}
	p, err := camelot.NewPermanentProblem(a)
	if err != nil {
		log.Fatal(err)
	}
	proof, _, err := camelot.RunProblem(context.Background(), p, camelot.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	per, err := p.Count(proof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Merlin claims per(A) = %v with a %d-symbol proof\n", per, proof.Size())

	ok, err := camelot.VerifyProof(p, proof, 3, 1002)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Arthur accepts the honest proof:", ok)

	// A dishonest Merlin perturbs one coefficient.
	q := proof.Primes[0]
	proof.Coeffs[q][0][5] = (proof.Coeffs[q][0][5] + 1) % q
	ok, err = camelot.VerifyProof(p, proof, 1, 1003)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Arthur accepts the forged proof:", ok)
	// Output:
	// Merlin claims per(A) = 67392 with a 311-symbol proof
	// Arthur accepts the honest proof: true
	// Arthur accepts the forged proof: false
}
