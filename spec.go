package camelot

// Textual workload specs: the one-line `kind key=value ...` encoding
// shared by the jobs manifest, the coordinate subcommand, and — most
// importantly — the control protocol's Assign manifests. A multi-process
// run is bit-identical to an in-process one only if the coordinator and
// every worker daemon construct the *same* Problem, so the spec string
// is the canonical instance encoding: the coordinator parses it once
// for its own geometry, ships the raw field string to workers, and each
// worker rebuilds through the same catalog entry (catalog.go). Random
// workloads stay deterministic because every generator is seeded and
// every omitted field has one default, applied identically on both
// sides.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Workload is one parsed spec: the problem ready to run locally, plus
// the (Kind, Instance) pair a coordinator ships to worker daemons.
type Workload struct {
	// Kind is the workload family, a catalog entry's name (see Kinds).
	Kind string
	// Instance is the field encoding ("n=24 p=0.3 seed=7") carried
	// verbatim in Assign manifests.
	Instance []byte
	// Canonical is the fully resolved spec line: every field present
	// with its default applied and its value re-formatted, in the fixed
	// order the constructor reads them. Two spec strings that build the
	// same problem canonicalize identically ("triangles" and
	// "triangles p=0.3 n=32" both yield "triangles seed=1 n=32 p=0.3"),
	// so this — not the verbatim Instance — is cache-key material.
	Canonical string
	// Problem is the constructed counting problem.
	Problem CountingProblem

	kind   *Kind       // the catalog entry; its label heads Answer's line
	values fieldValues // the resolved fields build reads
}

// Digest returns the content address of the proof this workload produces
// under fault tolerance f: a hex SHA-256 over the canonical spec and the
// geometry knobs that shape the proof bytes. The codeword length is
// e = d+1+2f, so f changes Points/Evals and is part of the key; node
// count, erasure budget, repair rounds, and verification seed/trials all
// leave the decoded proof bit-identical and are deliberately excluded.
// The CLI, jobs manifests, and the serve layer must all key caches with
// this digest so a proof prepared through any front end is a hit for the
// others. The domain string is versioned with the proof bytes, so a key
// never outlives them: v3 is proofs of the permanent, Hamiltonian and
// orthogonal-vectors kinds at the degree their polynomial has (v2 had
// their naive degree bounds, v1 the 2^20 modulus floor).
func (w *Workload) Digest(faults int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("camelot/proof/v3 %s f=%d", w.Canonical, faults)))
	return hex.EncodeToString(h[:])
}

// ParseWorkload parses a `kind key=value ...` spec line against the
// catalog (catalog.go). Unknown kinds and malformed or negative fields
// error; unknown keys are ignored (forward compatibility with newer spec
// writers). Kinds and their defaults:
//
//	triangles n=32 p=0.3
//	cliques   n=8 k=6 p=0.7
//	permanent n=10
//	cnfsat    vars=12 clauses=20 width=3
//	hamilton  n=9 p=0.5
//	chromatic n=10 p=0.4
//	setcover  n=10 sets=30 t=4
//	ov        n=128 t=16
//	conv3sum  n=32 bits=6
//	csp       n=12 sigma=2 m=8
//
// and seed=1 everywhere.
func ParseWorkload(spec string) (*Workload, error) {
	w, err := resolveWorkload(spec)
	if err == nil {
		err = w.build()
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// resolveWorkload is ParseWorkload's first half, all that Digest reads:
// it applies the kind's defaults to the given fields and parses them,
// seed first and then in declaration order — the order of the canonical
// line, every value re-formatted — and leaves Problem nil.
func resolveWorkload(spec string) (*Workload, error) {
	parts := strings.Fields(spec)
	if len(parts) == 0 {
		return nil, fmt.Errorf("empty workload spec")
	}
	name := parts[0]
	given := make(map[string]string, len(parts)-1)
	for _, kv := range parts[1:] {
		key, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("%s: field %q is not key=value", name, kv)
		}
		given[key] = v
	}
	var kind *Kind
	for i := range catalog {
		if catalog[i].Name == name {
			kind = &catalog[i]
		}
	}
	if kind == nil {
		names := make([]string, len(catalog))
		for i, k := range catalog {
			names[i] = k.Name
		}
		return nil, fmt.Errorf("%s: unknown workload kind (want %s)", name, strings.Join(names, "|"))
	}
	values := fieldValues{n: map[string]int{}, x: map[string]float64{}}
	w := &Workload{Kind: name, Instance: []byte(strings.Join(parts[1:], " ")), Canonical: name, kind: kind, values: values}
	for _, f := range append([]Field{seedField}, kind.Fields...) {
		v, ok := given[f.Name]
		if !ok {
			v = f.Default
		}
		var err error
		if f.real {
			values.x[f.Name], err = strconv.ParseFloat(v, 64)
			if x := values.x[f.Name]; !(x >= 0 && x <= 1) {
				err = strconv.ErrRange // a probability; NaN and ±Inf fail too
			}
			v = strconv.FormatFloat(values.x[f.Name], 'g', -1, 64)
		} else {
			values.n[f.Name], err = strconv.Atoi(v)
			if f != seedField && values.n[f.Name] < 0 {
				err = strconv.ErrRange // sizes and counts; only the seed may be negative
			}
			v = strconv.Itoa(values.n[f.Name])
		}
		if err != nil {
			return nil, fmt.Errorf("%s: bad %s=%q", name, f.Name, given[f.Name])
		}
		w.Canonical += " " + f.Name + "=" + v
	}
	return w, nil
}

// build is ParseWorkload's second half: the kind's seeded generator
// draws the instance (graph, matrix or formula) the fields describe.
func (w *Workload) build() (err error) {
	w.Problem, err = w.kind.build(w.values)
	return err
}

// Answer renders the workload's result from a decoded proof: the line
// (or, for polynomial- and distribution-valued kinds, lines) the CLI
// prints above the framework report.
func (w *Workload) Answer(proof *Proof) (string, error) {
	if p, ok := w.Problem.(countingProblem); ok && p.text != nil {
		return p.text(proof)
	}
	n, err := w.Problem.Count(proof)
	return fmt.Sprintf("%s: %v", w.kind.label, n), err
}
