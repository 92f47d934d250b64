package camelot

import (
	"testing"
	"time"

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
}

// The five kinds that predate the catalog are cache keys in the wild:
// their canonical lines (recorded at 9666d69, before the catalog
// existed) and digests at defaults are pinned as literals, so no edit of
// a default or of the grammar can move them without failing here. The
// digests are of domain camelot/proof/v2: the canonical lines did not
// change when the modulus floor went from 2^20 to 2^61, the proof bytes
// behind every one of them did, and a key must not outlive its bytes.
func TestCanonicalAndDigestPinned(t *testing.T) {
	for _, pin := range []struct{ kind, canonical, digest0, digest2 string }{
		{"triangles", "triangles seed=1 n=32 p=0.3", "0d4e7fa90a4d6dd3edb8d13591dd886a24245a1637b75ad5f09cae655345be35", "5a1e2e992ddb2fc032bd9b54d80c136244e1281692656827131465b60ca893bb"},
		{"cliques", "cliques seed=1 n=8 k=6 p=0.7", "8ccdc76148bb3c37e987f1e040d682945cf18a805f4bec4f363ba6488efedf25", "78d4df421c15849206d45a27b5ecc7fae9a4c6d665d9fbb8667e581e892d88bb"},
		{"permanent", "permanent seed=1 n=10", "340b4f6ae9d7ab208cda14ac131215f0618f0bff9aaf47f742a79508d4bd40d0", "901f4b5f8a0e739529097346836ff5cf17ec4d56ef440f7ccafb1d30c170e14b"},
		{"cnfsat", "cnfsat seed=1 vars=12 clauses=20 width=3", "ffaa7bd14553a69111f72e19376ad75a584fdddfd78f279862e1725169eb4d9b", "9cfe85ebafc147aa019d9828a3c6a6eea008ae21c49ae6442342f96ac3152e0c"},
		{"hamilton", "hamilton seed=1 n=9 p=0.5", "ab04ebadb3741e4e66a6f9db35de4d19d03e43b026c90aac37337b9eb81b300c", "5b65bce9674f9592136ee1107f48b3c653f1536674349e9bf0c3266ec7cbb27a"},
	} {
		w, err := ParseWorkload(pin.kind)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", pin.kind, err)
		}
		if w.Canonical != pin.canonical {
			t.Errorf("%s: Canonical = %q, want %q", pin.kind, w.Canonical, pin.canonical)
		}
		if got := w.Digest(0); got != pin.digest0 {
			t.Errorf("%s: Digest(0) = %s, want %s", pin.kind, got, pin.digest0)
		}
		if got := w.Digest(2); got != pin.digest2 {
			t.Errorf("%s: Digest(2) = %s, want %s", pin.kind, got, pin.digest2)
		}
	}
}

// Every catalog entry is well formed: defaults are already in canonical
// form (so the ParseWorkload doc table, the CLI's flag defaults and the
// canonical line all show the same text), a bare kind name and its fully
// spelled-out canonical line are the same workload, and the answer
// renders.
func TestCatalogEntries(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		if seen[k.Name] || k.Name == "" || k.Help == "" {
			t.Errorf("kind %q: duplicate, unnamed or undocumented", k.Name)
		}
		seen[k.Name] = true
		w, err := ParseWorkload(k.Name)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", k.Name, err)
		}
		want := k.Name + " seed=1"
		for _, f := range k.Fields {
			if f.Help == "" {
				t.Errorf("%s: field %s has no help text", k.Name, f.Name)
			}
			want += " " + f.Name + "=" + f.Default
		}
		if w.Canonical != want {
			t.Errorf("%s: Canonical = %q, but the declared defaults spell %q", k.Name, w.Canonical, want)
		}
		again, err := ParseWorkload(w.Canonical)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", w.Canonical, err)
		}
		if again.Canonical != w.Canonical || again.Digest(3) != w.Digest(3) {
			t.Errorf("%s: canonical line reparses to %q", k.Name, again.Canonical)
		}
	}
}

// A spec is untrusted input (the proof service parses what tenants
// send): a zero or negative size must come back as an error or a
// problem, never as a panic or a hang in an instance generator.
func TestParseWorkloadDegenerateFields(t *testing.T) {
	for _, k := range Kinds() {
		for _, f := range k.Fields {
			for _, v := range []string{"0", "1", "-1", "65"} {
				spec := k.Name + " " + f.Name + "=" + v
				done := make(chan error, 1)
				go func() {
					_, err := ParseWorkload(spec)
					done <- err
				}()
				select {
				case err := <-done:
					if v == "-1" && !f.real && err == nil {
						t.Errorf("ParseWorkload(%q) accepted a negative size", spec)
					}
				case <-time.After(20 * time.Second):
					t.Fatalf("ParseWorkload(%q) hangs", spec)
				}
			}
		}
	}
}

// Every counting problem the facade hands out must still compile after
// the newCountingProblem wrapping: a wrapper that hid Compile would
// silently send the workload through the pointwise plan.
func TestCountingProblemsCompile(t *testing.T) {
	problems := map[string]CountingProblem{}
	for _, k := range Kinds() {
		w, err := ParseWorkload(k.Name)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", k.Name, err)
		}
		problems["spec "+k.Name] = w.Problem
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
