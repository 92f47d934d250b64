// Merlin: the dual reading of every Camelot algorithm as a Merlin–Arthur
// protocol (paper §1.2). Merlin supplies the proof — here prepared
// honestly, then forged — and Arthur verifies it with random evaluations
// costing no more than a single Knight's share of the work.
package main

import (
	"context"
	"fmt"
	"log"

	"camelot"
	"camelot/internal/permanent"
)

func main() {
	// The claim: the permanent of a 10x10 0/1 matrix.
	a := make([][]int64, 10)
	for i := range a {
		a[i] = make([]int64, 10)
		for j := range a[i] {
			if (i+j)%3 != 0 {
				a[i][j] = 1
			}
		}
	}
	p, err := permanent.NewProblem(a)
	if err != nil {
		log.Fatal(err)
	}

	// Merlin materializes and instantaneously supplies the proof (we
	// let a single node prepare it; Merlin would just know it).
	proof, _, err := camelot.RunProblem(context.Background(), p, camelot.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	per, err := p.Recover(proof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Merlin claims: per(A) = %v, with a %d-symbol proof\n", per, proof.Size())

	// Arthur verifies with a few coin tosses.
	ok, err := camelot.VerifyProof(p, proof, 3, 1002)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Arthur's verdict on the honest proof: accept=%v\n", ok)

	// A dishonest Merlin perturbs one coefficient...
	q := proof.Primes[0]
	proof.Coeffs[q][0][5] = (proof.Coeffs[q][0][5] + 1) % q
	rejectedAt := -1
	for trial := 0; trial < 50; trial++ {
		ok, err := camelot.VerifyProof(p, proof, 1, int64(trial))
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			rejectedAt = trial
			break
		}
	}
	fmt.Printf("forged proof rejected at trial %d (soundness error <= d/q = %d/%d per trial)\n",
		rejectedAt, proof.Degree, q)
}
