// Byzantine: the scene from the paper's §1.1, executable. Eight Knights
// count 6-cliques around the Round Table; Lady Morgana enchants two of
// them into broadcasting different garbage to every listener. The honest
// Knights error-correct the shares, name the enchanted ones, and still
// deliver a proof any lone soul can check.
package main

import (
	"context"
	"fmt"
	"log"

	"camelot"
)

func main() {
	// The common input: a sparse graph with two planted 6-cliques.
	g := camelot.PlantCliques(9 /* vertices */, 0.3, 6 /* clique size */, 2 /* planted */, 3 /* seed */)

	// Morgana enchants Knights 2 and 5: full equivocation (different lies
	// to different recipients). With K=8 nodes we need the Reed–Solomon
	// radius to swallow two whole node blocks; probe the degree first.
	_, probe, err := camelot.CountCliques(context.Background(), g, 6, camelot.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	const k = 8
	faults := 0
	for {
		e := probe.Degree + 1 + 2*faults
		if faults >= 2*((e+k-1)/k) {
			break
		}
		faults++
	}

	count, report, err := camelot.CountCliques(context.Background(), g, 6,
		camelot.WithNodes(k),
		camelot.WithFaultTolerance(faults),
		// Every honest Knight decodes; the consistent liar costs one
		// decode, the equivocator one per Knight.
		camelot.WithAdversary(camelot.EquivocatingNodes(13, 2, 5)),
		camelot.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("six-cliques found: %v\n\n", count)
	fmt.Printf("the community effort:\n")
	fmt.Printf("  knights:              %d (enchanted: %v)\n", report.Nodes, report.ByzantineNodes)
	fmt.Printf("  corrupted shares:     %d of %d (radius %d)\n",
		report.CorruptedShares, report.CodeLength, faults)
	fmt.Printf("  culprits identified:  %v — purely from the decoded error locations\n", report.SuspectNodes)
	fmt.Printf("  proof verified:       %v\n", report.Verified)
}
