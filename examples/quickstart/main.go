// Quickstart: count the triangles of a random graph with a 4-node
// Camelot community, then inspect the proof artifacts that make the
// computation independently verifiable.
//
// The one-shot functions used here run on a shared default cluster
// behind the scenes; when you have a *stream* of problems, create your
// own runtime with camelot.NewCluster and submit them as concurrent
// jobs — see ExampleCluster in the package documentation.
package main

import (
	"context"
	"fmt"
	"log"

	"camelot"
)

func main() {
	g := camelot.RandomGraph(40 /* vertices */, 0.25 /* edge prob */, 42 /* seed */)

	count, report, err := camelot.CountTriangles(context.Background(), g,
		camelot.WithNodes(4),
		camelot.WithVerifyTrials(3),
		camelot.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("triangles: %v\n\n", count)
	fmt.Printf("the proof behind the number:\n")
	fmt.Printf("  %d nodes each evaluated ~%d points of a degree-%d proof polynomial\n",
		report.Nodes, (report.CodeLength+report.Nodes-1)/report.Nodes, report.Degree)
	fmt.Printf("  proof size: %d field symbols over primes %v\n", report.ProofSymbols, report.Primes)
	fmt.Printf("  verified with %d random spot checks (%v each): %v\n",
		report.VerifyTrials, report.VerifyPerTrial, report.Verified)
}
