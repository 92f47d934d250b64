package main

import (
	"context"

	"camelot"
	"camelot/internal/conv3sum"
)

// arrayIdentity returns [1, 2, ..., n]: every (i, ℓ) pair is a
// Convolution3SUM solution.
func arrayIdentity(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// conv3sumRun executes the Camelot Convolution3SUM run.
func conv3sumRun(a []uint64, t int) (*conv3sum.Problem, *camelot.Report, []int64) {
	p, err := conv3sum.NewProblem(a, t)
	if err != nil {
		panic(err)
	}
	proof, rep, err := camelot.RunProblem(context.Background(), p, camelot.WithNodes(4), camelot.WithSeed(8))
	if err != nil {
		panic(err)
	}
	counts, err := p.Counts(proof)
	if err != nil {
		panic(err)
	}
	return p, rep, counts
}
