// Command experiments reproduces the paper's per-theorem claims. The
// paper is an extended abstract without numbered tables, so the table in
// run below is the map from theorems to experiment ids E1..E13. Each
// experiment prints a markdown table comparing the Camelot execution
// against the best sequential baseline and checking the claimed shape:
// proof sizes, per-node times, total-work ratios, fault tolerance, and
// soundness.
//
// Usage: experiments [-quick] [-only E1,E6,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "smaller sweeps (CI-sized)")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	all := []struct {
		id   string
		name string
		run  func(quick bool)
	}{
		{"E1", "Theorem 1: k-clique Camelot vs sequential", runE1},
		{"E2", "Theorem 2/13: (6,2)-form circuits", runE2},
		{"E3", "Theorem 3: Camelot triangles, proof ~ n^ω/m", runE3},
		{"E4", "Theorem 4: split/sparse triangle counting", runE4},
		{"E5", "Theorem 5: AYZ-bound parallel triangles", runE5},
		{"E6", "Theorem 6: chromatic polynomial 2^{n/2}", runE6},
		{"E7", "Theorem 7: Tutte polynomial 2^{n/3} proof", runE7},
		{"E8", "Theorem 8: #CNFSAT / permanent / Hamilton 2^{n/2}", runE8},
		{"E9", "Theorems 9-10: set covers and partitions", runE9},
		{"E10", "Theorem 11: OV / Hamming / Conv3SUM", runE10},
		{"E11", "Theorem 12: 2-CSP enumeration", runE11},
		{"E12", "Framework: robustness and soundness", runE12},
		{"E13", "Framework: K-node speedup tradeoff", runE13},
	}
	for _, exp := range all {
		if len(wanted) > 0 && !wanted[exp.id] {
			continue
		}
		fmt.Printf("\n## %s — %s\n\n", exp.id, exp.name)
		exp.run(*quick)
	}
	return nil
}
