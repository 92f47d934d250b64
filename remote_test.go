package camelot

// Facade-level tests for the multi-process deployment surface: the
// workload spec grammar and the coordinator's geometry guard. A
// coordinator + in-process worker-daemon run is TestGoldenProofs' ctrl
// shape; the OS-process variant lives in examples/multiproc and CI.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestParseWorkloadGrammar pins the spec grammar: defaults, kinds,
// canonical instance bytes, and the rejection surface.
func TestParseWorkloadGrammar(t *testing.T) {
	for _, spec := range []string{
		"triangles", "triangles n=16 p=0.4 seed=3",
		"cliques n=7 k=6", "permanent n=6",
		"cnfsat vars=8 clauses=12 width=2", "hamilton n=7 p=0.6",
	} {
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Errorf("ParseWorkload(%q): %v", spec, err)
			continue
		}
		if want := strings.Fields(spec)[0]; w.Kind != want {
			t.Errorf("ParseWorkload(%q): kind %q, want %q", spec, w.Kind, want)
		}
		if w.Problem == nil {
			t.Errorf("ParseWorkload(%q): nil problem", spec)
		}
	}
	w, err := ParseWorkload("  triangles   n=16  p=0.4 ")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(w.Instance); got != "n=16 p=0.4" {
		t.Errorf("instance not canonicalized: %q", got)
	}
	for _, bad := range []string{
		"", "warlocks n=3", "triangles n=three",
		"triangles n", "cnfsat vars=8 width=2.5",
	} {
		if _, err := ParseWorkload(bad); err == nil {
			t.Errorf("ParseWorkload(%q) accepted", bad)
		}
	}
}

// TestParseWorkloadDefaultsMatchExplicit pins that an omitted field and
// its documented default build the same problem — the property worker
// daemons rely on when a manifest spells fewer fields than the
// coordinator's parse saw.
func TestParseWorkloadDefaultsMatchExplicit(t *testing.T) {
	implicit, err := ParseWorkload("triangles")
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := ParseWorkload("triangles n=32 p=0.3 seed=1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pa, _, err := RunProblem(ctx, implicit.Problem, WithNodes(2), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := RunProblem(ctx, explicit.Problem, WithNodes(2), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := pa.MarshalBinary()
	rb, _ := pb.MarshalBinary()
	if !bytes.Equal(ra, rb) {
		t.Error("default and explicit specs built different problems")
	}
}

// TestCoordinatorNodeMismatch pins the AsTransport guard: a run whose
// WithNodes disagrees with the coordinator's geometry fails with a
// naming error instead of shipping wrong ranges.
func TestCoordinatorNodeMismatch(t *testing.T) {
	co, err := NewCoordinator(3, CoordinatorConfig{Workload: "triangles n=8", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err = RunProblem(ctx, co.Workload().Problem, WithNodes(2), co.AsTransport())
	if err == nil || !strings.Contains(err.Error(), "coordinator built for 3 nodes") {
		t.Fatalf("mismatched run error = %v, want coordinator geometry complaint", err)
	}
}
