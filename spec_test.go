package camelot

import (
	"testing"

	"camelot/internal/plan"
)

// Equivalent spec strings — defaults omitted vs. spelled out, fields in
// any order — must canonicalize to one line and one digest: the cache
// key the CLI, jobs manifests, and serve layer share.
func TestWorkloadCanonicalNormalizes(t *testing.T) {
	specs := []string{
		"triangles",
		"triangles n=32",
		"triangles p=0.3 n=32 seed=1",
		"triangles seed=1 n=32 p=0.3",
	}
	const want = "triangles seed=1 n=32 p=0.3"
	var digest string
	for _, spec := range specs {
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", spec, err)
		}
		if w.Canonical != want {
			t.Fatalf("ParseWorkload(%q).Canonical = %q, want %q", spec, w.Canonical, want)
		}
		if d := w.Digest(1); digest == "" {
			digest = d
		} else if d != digest {
			t.Fatalf("ParseWorkload(%q).Digest(1) = %s, want %s", spec, d, digest)
		}
	}
}

func TestWorkloadDigestSeparatesInstances(t *testing.T) {
	base, err := ParseWorkload("triangles n=32 p=0.3 seed=1")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{base.Digest(0): "triangles n=32 p=0.3 seed=1 f=0"}
	record := func(label, d string) {
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision: %s and %s both map to %s", label, prev, d)
		}
		seen[d] = label
	}
	// Geometry knob f changes the codeword length and therefore the
	// proof bytes; it must change the key.
	record("same spec f=1", base.Digest(1))
	for _, spec := range []string{
		"triangles n=32 p=0.3 seed=2",
		"triangles n=16 p=0.3 seed=1",
		"cliques n=8 k=6 p=0.7 seed=1",
		"permanent n=10 seed=1",
	} {
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", spec, err)
		}
		record(spec+" f=0", w.Digest(0))
	}
	// Negative fault tolerance is clamped like the run options clamp it.
	if base.Digest(-3) != base.Digest(0) {
		t.Fatal("Digest(-3) != Digest(0): negative faults should clamp to 0")
	}
}

// Every counting problem the facade hands out must still compile after
// the newCountingProblem wrapping: a wrapper that hid Compile would
// silently send the workload through the pointwise plan.
func TestCountingProblemsCompile(t *testing.T) {
	problems := map[string]CountingProblem{}
	for _, kind := range []string{"triangles", "cliques", "permanent", "cnfsat", "hamilton"} {
		w, err := ParseWorkload(kind)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", kind, err)
		}
		problems["spec "+kind] = w.Problem
	}
	g := RandomGraph(8, 0.5, 1)
	add := func(name string, p CountingProblem, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		problems[name] = p
	}
	p, err := NewTriangleProblem(g)
	add("NewTriangleProblem", p, err)
	p, err = NewCliqueProblem(g, 6)
	add("NewCliqueProblem", p, err)
	p, err = NewPermanentProblem([][]int64{{1, 2}, {3, 4}})
	add("NewPermanentProblem", p, err)
	p, err = NewCNFProblem(&CNFFormula{V: 4, Clauses: [][]int{{1, 2}, {-3, 4}}})
	add("NewCNFProblem", p, err)
	p, err = NewHamiltonianCycleProblem(g)
	add("NewHamiltonianCycleProblem", p, err)
	for name, p := range problems {
		if _, ok := p.(plan.Compiler); !ok {
			t.Errorf("%s: %T does not implement plan.Compiler", name, p)
		}
	}
}
