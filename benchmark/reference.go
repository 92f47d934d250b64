package main

// The answer oracle. Every op's recovered count is compared with a
// brute-force count computed here from the spec string alone. Nothing in
// this file imports the module under test: the instance generators are
// written out again (a spec such as "triangles n=48 p=0.2 seed=7" names
// one instance, and the proof cache is keyed by it, so a generator that
// drifts is a wrong answer too) and the counts use textbook algorithms
// that share nothing with the proof polynomials.

import (
	"fmt"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
)

// specDefaults mirrors the documented defaults of the spec grammar.
var specDefaults = map[string]map[string]string{
	"triangles": {"n": "32", "p": "0.3"},
	"cliques":   {"n": "8", "k": "6", "p": "0.7"},
	"permanent": {"n": "10"},
	"cnfsat":    {"vars": "12", "clauses": "20", "width": "3"},
	"hamilton":  {"n": "9", "p": "0.5"},
}

// refFields parses "kind key=value ..." into the kind and its fields
// with defaults applied.
func refFields(spec string) (string, map[string]string, error) {
	parts := strings.Fields(spec)
	if len(parts) == 0 {
		return "", nil, fmt.Errorf("reference: empty spec")
	}
	defaults, ok := specDefaults[parts[0]]
	if !ok {
		return "", nil, fmt.Errorf("reference: unknown kind %q", parts[0])
	}
	fields := map[string]string{"seed": "1"}
	for k, v := range defaults {
		fields[k] = v
	}
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", nil, fmt.Errorf("reference: field %q is not key=value", kv)
		}
		fields[k] = v
	}
	return parts[0], fields, nil
}

// referenceCount returns the exact answer of the instance a spec names.
func referenceCount(spec string) (*big.Int, error) {
	kind, f, err := refFields(spec)
	if err != nil {
		return nil, err
	}
	var perr error
	geti := func(key string) int {
		n, err := strconv.Atoi(f[key])
		if err != nil && perr == nil {
			perr = fmt.Errorf("reference: bad %s=%q", key, f[key])
		}
		return n
	}
	getf := func(key string) float64 {
		x, err := strconv.ParseFloat(f[key], 64)
		if err != nil && perr == nil {
			perr = fmt.Errorf("reference: bad %s=%q", key, f[key])
		}
		return x
	}
	seed := int64(geti("seed"))
	var count *big.Int
	switch kind {
	case "triangles":
		adj := refGnp(geti("n"), getf("p"), seed)
		count = big.NewInt(refCliques(adj, 3))
	case "cliques":
		adj := refGnp(geti("n"), getf("p"), seed)
		count = big.NewInt(refCliques(adj, geti("k")))
	case "permanent":
		count = refPermanent(refIntMatrix(geti("n"), seed))
	case "cnfsat":
		vars := geti("vars")
		count = big.NewInt(refCountSAT(vars, refCNF(vars, geti("clauses"), geti("width"), seed)))
	case "hamilton":
		adj := refGnp(geti("n"), getf("p"), seed)
		count = big.NewInt(refHamiltonianCycles(adj))
	}
	if perr != nil {
		return nil, perr
	}
	return count, nil
}

// refGnp draws G(n, p): one uniform draw per vertex pair in
// lexicographic order, an edge when the draw is below p.
func refGnp(n int, p float64, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				adj[u][v], adj[v][u] = true, true
			}
		}
	}
	return adj
}

// refIntMatrix draws an n×n matrix with entries in [0, 3], row by row.
func refIntMatrix(n int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]int64, n)
	for i := range a {
		a[i] = make([]int64, n)
		for j := range a[i] {
			a[i][j] = rng.Int63n(4)
		}
	}
	return a
}

// refCNF draws clauses of the given width: per literal a variable in
// 1..vars, then a sign.
func refCNF(vars, clauses, width int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, clauses)
	for j := range out {
		cl := make([]int, width)
		for i := range cl {
			lit := rng.Intn(vars) + 1
			if rng.Intn(2) == 1 {
				lit = -lit
			}
			cl[i] = lit
		}
		out[j] = cl
	}
	return out
}

// refCliques counts k-cliques by extending ascending vertex tuples.
func refCliques(adj [][]bool, k int) int64 {
	n := len(adj)
	chosen := make([]int, 0, k)
	var extend func(from int) int64
	extend = func(from int) int64 {
		if len(chosen) == k {
			return 1
		}
		var total int64
	next:
		for v := from; v < n; v++ {
			for _, u := range chosen {
				if !adj[u][v] {
					continue next
				}
			}
			chosen = append(chosen, v)
			total += extend(v + 1)
			chosen = chosen[:len(chosen)-1]
		}
		return total
	}
	return extend(0)
}

// refPermanent is Ryser's formula: perm(A) = (-1)^n Σ_S (-1)^|S| Π_i
// Σ_{j∈S} a_ij. Row-sum products fit int64 for the benchmark's sizes
// (n ≤ 12, entries ≤ 3); the signed sum is accumulated exactly.
func refPermanent(a [][]int64) *big.Int {
	n := len(a)
	total := new(big.Int)
	term := new(big.Int)
	for s := 1; s < 1<<uint(n); s++ {
		prod := int64(1)
		bits := 0
		for i := 0; i < n && prod != 0; i++ {
			var sum int64
			for j := 0; j < n; j++ {
				if s>>uint(j)&1 == 1 {
					sum += a[i][j]
				}
			}
			prod *= sum
		}
		for j := 0; j < n; j++ {
			bits += s >> uint(j) & 1
		}
		term.SetInt64(prod)
		if (n-bits)%2 == 1 {
			term.Neg(term)
		}
		total.Add(total, term)
	}
	return total
}

// refCountSAT enumerates all assignments.
func refCountSAT(vars int, clauses [][]int) int64 {
	var count int64
assignments:
	for mask := 0; mask < 1<<uint(vars); mask++ {
		for _, cl := range clauses {
			sat := false
			for _, lit := range cl {
				v, want := lit, 1
				if lit < 0 {
					v, want = -lit, 0
				}
				if mask>>uint(v-1)&1 == want {
					sat = true
					break
				}
			}
			if !sat {
				continue assignments
			}
		}
		count++
	}
	return count
}

// refHamiltonianCycles counts undirected Hamiltonian cycles with the
// Held–Karp table of paths from vertex 0: ways[S][v] is the number of
// paths that start at 0, visit exactly S and end at v. Every cycle is
// found once per direction.
func refHamiltonianCycles(adj [][]bool) int64 {
	n := len(adj)
	if n < 3 {
		return 0
	}
	ways := make([][]int64, 1<<uint(n))
	for s := range ways {
		ways[s] = make([]int64, n)
	}
	ways[1][0] = 1
	for s := 1; s < 1<<uint(n); s += 2 { // every set holds vertex 0
		for v := 0; v < n; v++ {
			if ways[s][v] == 0 {
				continue
			}
			for u := 1; u < n; u++ {
				if s>>uint(u)&1 == 0 && adj[v][u] {
					ways[s|1<<uint(u)][u] += ways[s][v]
				}
			}
		}
	}
	var directed int64
	full := 1<<uint(n) - 1
	for v := 1; v < n; v++ {
		if adj[v][0] {
			directed += ways[full][v]
		}
	}
	return directed / 2
}
