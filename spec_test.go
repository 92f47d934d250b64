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
// their canonical lines and digests at defaults are pinned as literals
// (recorded at 9666d69, before the catalog existed), so deriving the
// grammar from a table cannot have moved them — and no later edit of a
// default can without failing here.
func TestCanonicalAndDigestPinned(t *testing.T) {
	for _, pin := range []struct{ kind, canonical, digest0, digest2 string }{
		{"triangles", "triangles seed=1 n=32 p=0.3", "b70bcd82aca283f8c5cf68198909173723cfc3aa113d6d034652b30f804df40b", "32675a4ff215104b40251bc411d28b4eafa5e480a81d9ed25180f6b16320d092"},
		{"cliques", "cliques seed=1 n=8 k=6 p=0.7", "b2107f4495dabe78f73b8e7abdc9d2f8fb2907c8a0a5d8e4a10ec3ab630b6296", "8c665081a0a1765de62642ec834f42e6ad94af52a7a8034bab5d000db1f0b53a"},
		{"permanent", "permanent seed=1 n=10", "be34efbde2f4c72c39a3f0c14b5f1fff6331a13e25f3807195aa8c8933d77e0b", "97e6131308209434dcac34c1e14c9dfa9d4fe68589ec30d6b2ba0364a66d2a64"},
		{"cnfsat", "cnfsat seed=1 vars=12 clauses=20 width=3", "58240ea2af70acb9a884afe1d4fe67c695bceaf79788a342119176fa6abf9e4e", "010357d674c94af0684001e29ce3840533b83b68b19a2882b43c3819e9903b48"},
		{"hamilton", "hamilton seed=1 n=9 p=0.5", "42605b776c6a0985ea8999e8185eb97bd6c5fbed349d26a35b0d08f351ac208b", "865cf3e34fc3bf8fa6c2671691dc7e4504d0ff8433ccf1ec19e40d2f09d449c8"},
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
