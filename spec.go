package camelot

// Textual workload specs: the one-line `kind key=value ...` encoding
// shared by the jobs manifest, the coordinate subcommand, and — most
// importantly — the control protocol's Assign manifests. A multi-process
// run is bit-identical to an in-process one only if the coordinator and
// every worker daemon construct the *same* Problem, so the spec string
// is the canonical instance encoding: the coordinator parses it once
// for its own geometry, ships the raw field string to workers, and each
// worker rebuilds through the same constructor registered here. Random
// workloads stay deterministic because every generator is seeded and
// every omitted field has one default, applied identically on both
// sides.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"camelot/internal/core"
	"camelot/internal/ctrl"
)

// Workload is one parsed spec: the problem ready to run locally, plus
// the (Kind, Instance) pair a coordinator ships to worker daemons.
type Workload struct {
	// Kind is the workload family: triangles, cliques, permanent,
	// cnfsat, or hamilton.
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
}

// Digest returns the content address of the proof this workload produces
// under fault tolerance f: a hex SHA-256 over the canonical spec and the
// geometry knobs that shape the proof bytes. The codeword length is
// e = d+1+2f, so f changes Points/Evals and is part of the key; node
// count, erasure budget, repair rounds, and verification seed/trials all
// leave the decoded proof bit-identical and are deliberately excluded.
// The CLI, jobs manifests, and the serve layer must all key caches with
// this digest so a proof prepared through any front end is a hit for the
// others.
func (w *Workload) Digest(faults int) string {
	if faults < 0 {
		faults = 0
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("camelot/proof/v1 %s f=%d", w.Canonical, faults)))
	return hex.EncodeToString(h[:])
}

// ParseWorkload parses a `kind key=value ...` spec line. Unknown kinds
// and malformed fields error; unknown keys are ignored (forward
// compatibility with newer spec writers). Defaults per kind:
//
//	triangles n=32 p=0.3
//	cliques   n=8 k=6 p=0.7
//	permanent n=10
//	cnfsat    vars=12 clauses=20 width=3
//	hamilton  n=9 p=0.5
//
// and seed=1 everywhere.
func ParseWorkload(spec string) (*Workload, error) {
	parts := strings.Fields(spec)
	if len(parts) == 0 {
		return nil, fmt.Errorf("empty workload spec")
	}
	kind := parts[0]
	instance := strings.Join(parts[1:], " ")
	fields, err := parseSpecFields(parts[1:])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", kind, err)
	}
	s := &specFields{kind: kind, fields: fields}
	p, err := buildProblem(s)
	if err != nil {
		return nil, err
	}
	return &Workload{Kind: kind, Instance: []byte(instance), Canonical: s.canonical(), Problem: p}, nil
}

func parseSpecFields(kvs []string) (map[string]string, error) {
	fields := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("field %q is not key=value", kv)
		}
		fields[k] = v
	}
	return fields, nil
}

// specFields wraps a field map with typed, defaulting accessors whose
// first parse error sticks. Every access also records the resolved
// `key=value` pair (default applied, value re-formatted), so the access
// order of the constructor doubles as the canonical field order — the
// canonical encoding cannot drift from what buildProblem actually built.
type specFields struct {
	kind     string
	fields   map[string]string
	resolved []string
	err      error
}

func (s *specFields) intField(key string, def int) int {
	n := def
	if v, ok := s.fields[key]; ok {
		var err error
		n, err = strconv.Atoi(v)
		if err != nil && s.err == nil {
			s.err = fmt.Errorf("%s: bad %s=%q", s.kind, key, v)
		}
	}
	s.resolved = append(s.resolved, key+"="+strconv.Itoa(n))
	return n
}

func (s *specFields) floatField(key string, def float64) float64 {
	f := def
	if v, ok := s.fields[key]; ok {
		var err error
		f, err = strconv.ParseFloat(v, 64)
		if err != nil && s.err == nil {
			s.err = fmt.Errorf("%s: bad %s=%q", s.kind, key, v)
		}
	}
	s.resolved = append(s.resolved, key+"="+strconv.FormatFloat(f, 'g', -1, 64))
	return f
}

// canonical joins the resolved fields into the normalized spec line.
func (s *specFields) canonical() string {
	if len(s.resolved) == 0 {
		return s.kind
	}
	return s.kind + " " + strings.Join(s.resolved, " ")
}

// buildWorkload constructs the problem a spec names. This single
// function is the coordinator/worker agreement point: both ends route
// through it (the workers via the control-protocol registry below).
func buildWorkload(kind string, fields map[string]string) (CountingProblem, error) {
	return buildProblem(&specFields{kind: kind, fields: fields})
}

// buildProblem constructs the problem from pre-wrapped fields, leaving
// the resolved canonical encoding behind on s for callers that need it.
func buildProblem(s *specFields) (CountingProblem, error) {
	kind := s.kind
	seed := int64(s.intField("seed", 1))
	var p CountingProblem
	var err error
	switch kind {
	case "triangles":
		n, pr := s.intField("n", 32), s.floatField("p", 0.3)
		if s.err != nil {
			return nil, s.err
		}
		p, err = NewTriangleProblem(RandomGraph(n, pr, seed))
	case "cliques":
		n, k, pr := s.intField("n", 8), s.intField("k", 6), s.floatField("p", 0.7)
		if s.err != nil {
			return nil, s.err
		}
		p, err = NewCliqueProblem(RandomGraph(n, pr, seed), k)
	case "permanent":
		n := s.intField("n", 10)
		if s.err != nil {
			return nil, s.err
		}
		p, err = NewPermanentProblem(RandomIntMatrix(n, seed))
	case "cnfsat":
		vars, clauses, width := s.intField("vars", 12), s.intField("clauses", 20), s.intField("width", 3)
		if s.err != nil {
			return nil, s.err
		}
		p, err = NewCNFProblem(RandomCNF(vars, clauses, width, seed))
	case "hamilton":
		n, pr := s.intField("n", 9), s.floatField("p", 0.5)
		if s.err != nil {
			return nil, s.err
		}
		p, err = NewHamiltonianCycleProblem(RandomGraph(n, pr, seed))
	default:
		return nil, fmt.Errorf("%s: unknown workload kind (want triangles|cliques|permanent|cnfsat|hamilton)", kind)
	}
	return p, err
}

// init registers every spec kind with the control-protocol problem
// registry, so any process importing the facade — the camelot binary's
// node subcommand in particular — can rebuild a coordinator's workload
// from its Assign manifest.
func init() {
	for _, kind := range []string{"triangles", "cliques", "permanent", "cnfsat", "hamilton"} {
		kind := kind
		ctrl.RegisterProblem(kind, func(instance []byte) (core.Problem, error) {
			fields, err := parseSpecFields(strings.Fields(string(instance)))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", kind, err)
			}
			return buildWorkload(kind, fields)
		})
	}
}

// RandomCNF draws a uniform width-w CNF over vars variables,
// deterministically in the seed.
func RandomCNF(vars, clauses, width int, seed int64) *CNFFormula {
	rng := rand.New(rand.NewSource(seed))
	f := &CNFFormula{V: vars, Clauses: make([][]int, clauses)}
	for j := range f.Clauses {
		cl := make([]int, width)
		for i := range cl {
			lit := rng.Intn(vars) + 1
			if rng.Intn(2) == 1 {
				lit = -lit
			}
			cl[i] = lit
		}
		f.Clauses[j] = cl
	}
	return f
}

// RandomIntMatrix draws an n×n matrix with entries in [0, 3],
// deterministically in the seed.
func RandomIntMatrix(n int, seed int64) [][]int64 {
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
