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
// digests are of domain camelot/proof/v3: the canonical lines did not
// change when the modulus floor went from 2^20 to 2^61 (v2), nor when the
// permanent, cnfsat and hamilton proofs dropped to the degree their
// polynomial has (v3), the proof bytes behind them did, and a key must
// not outlive its bytes.
func TestCanonicalAndDigestPinned(t *testing.T) {
	for _, pin := range []struct{ kind, canonical, digest0, digest2 string }{
		{"triangles", "triangles seed=1 n=32 p=0.3", "bda210af7a4afd17c643a1bf8b0c1a92cf248ce1ba7bc75c5a9d1c785185e031", "f15466665b0d255180579b1ff8f1f4ba56590060fa6701974ddf4f9c9574f94b"},
		{"cliques", "cliques seed=1 n=8 k=6 p=0.7", "14659ccaabb5fcc865ee53a3cae6e16ae3f29f6f7430c50e7d7a658bf318e8c2", "719f4eb725ef88f6a58b60f1c5946ca30a30009d92ddc0bd4f8a4d3c5dbcdb85"},
		{"permanent", "permanent seed=1 n=10", "ac86ddb700d59c9245f32da25a98d57732ab3493108c6cb3df560800ea439f89", "f05ee08f063c0a72b1346b518159d26ed9d934ba34582f42ce565ff4e8140036"},
		{"cnfsat", "cnfsat seed=1 vars=12 clauses=20 width=3", "e81079d04c9121902068bf61e0e6648b8d8c8b900b7da42b622342e21f097a1f", "e4c59dcb06cd355491ca9ca42c43ebd11ef53e29e702442cba5911f0aae61155"},
		{"hamilton", "hamilton seed=1 n=9 p=0.5", "da7e1f2513e54de09f34862ce9ab8395db9c32c3e44084cceef0f463c018fa3b", "d0824abd98b12e4143e8cf325951e97c8e6544c1e5f52bd6a7e6b3a29b83130d"},
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
// problem, never as a panic or a hang in an instance generator, and a
// probability outside [0, 1], NaN and Inf among them, as an error.
func TestParseWorkloadDegenerateFields(t *testing.T) {
	for _, k := range Kinds() {
		for _, f := range k.Fields {
			for _, v := range []string{"0", "1", "-1", "65", "NaN", "Inf"} {
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
					if v != "0" && v != "1" && f.real && err == nil {
						t.Errorf("ParseWorkload(%q) accepted a probability outside [0, 1]", spec)
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
