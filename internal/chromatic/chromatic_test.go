package chromatic

import (
	"context"
	"math/big"
	"testing"

	"camelot/internal/core"
	"camelot/internal/graph"
	"camelot/internal/interp"
)

func TestDeletionContractionKnownPolynomials(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		// coefficients c_0..c_n of χ(t)
		want []int64
	}{
		// Triangle: t(t-1)(t-2) = t^3 - 3t^2 + 2t.
		{"K3", graph.Complete(3), []int64{0, 2, -3, 1}},
		// Path on 3 vertices: t(t-1)^2 = t^3 - 2t^2 + t.
		{"P3", graph.Path(3), []int64{0, 1, -2, 1}},
		// Single vertex: t.
		{"K1", graph.New(1), []int64{0, 1}},
		// C4: (t-1)^4 + (t-1) = t^4 -4t^3 +6t^2 -3t.
		{"C4", graph.Cycle(4), []int64{0, -3, 6, -4, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := DeletionContraction(tt.g)
			if len(got) != len(tt.want) {
				t.Fatalf("got %d coefficients, want %d", len(got), len(tt.want))
			}
			for i, w := range tt.want {
				if got[i].Cmp(big.NewInt(w)) != 0 {
					t.Fatalf("c_%d = %v, want %d", i, got[i], w)
				}
			}
		})
	}
}

func TestDeletionContractionMatchesBrute(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := graph.Gnp(6, 0.5, seed)
		coeffs := DeletionContraction(g)
		for _, tc := range []int64{1, 2, 3, 4} {
			want := CountColoringsBrute(g, int(tc))
			got := interp.EvalInt(coeffs, big.NewInt(tc))
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d t=%d: DC=%v brute=%v", seed, tc, got, want)
			}
		}
	}
}

func TestCamelotChromaticMatchesDeletionContraction(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp8":    graph.Gnp(8, 0.4, 1),
		"cycle7":  graph.Cycle(7),
		"k5":      graph.Complete(5),
		"path6":   graph.Path(6),
		"sparse9": graph.Gnp(9, 0.25, 2),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			p, err := NewProblem(g)
			if err != nil {
				t.Fatal(err)
			}
			proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Verified {
				t.Fatal("not verified")
			}
			got, err := p.Coefficients(proof)
			if err != nil {
				t.Fatal(err)
			}
			want := DeletionContraction(g)
			if len(got) != len(want) {
				t.Fatalf("coefficient count %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Cmp(want[i]) != 0 {
					t.Fatalf("c_%d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestCamelotChromaticPetersen(t *testing.T) {
	if testing.Short() {
		t.Skip("Petersen chromatic run in -short mode")
	}
	// The Petersen graph's chromatic polynomial at small t is classical:
	// χ(1) = 0, χ(2) = 0, χ(3) = 120.
	p, err := NewProblem(graph.Petersen())
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{Nodes: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := p.Values(proof)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Sign() != 0 || vals[1].Sign() != 0 {
		t.Fatalf("χ(1)=%v χ(2)=%v, want 0, 0", vals[0], vals[1])
	}
	if vals[2].Cmp(big.NewInt(120)) != 0 {
		t.Fatalf("χ(3) = %v, want 120", vals[2])
	}
}

func TestCamelotChromaticWithByzantineNodes(t *testing.T) {
	g := graph.Gnp(8, 0.5, 4)
	p, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	// Cover one node's block with the radius.
	d := p.Degree()
	k := 6
	f := 0
	for {
		e := d + 1 + 2*f
		if f >= (e+k-1)/k {
			break
		}
		f++
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{
		Nodes: k, FaultTolerance: f, Adversary: core.Adversary{Seed: 11, Liars: []int{2}}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Coefficients(proof)
	if err != nil {
		t.Fatal(err)
	}
	want := DeletionContraction(g)
	for i := range want {
		if got[i].Cmp(want[i]) != 0 {
			t.Fatalf("c_%d = %v, want %v", i, got[i], want[i])
		}
	}
	for _, s := range rep.SuspectNodes {
		if s != 2 {
			t.Fatalf("honest node %d implicated", s)
		}
	}
}

func TestChromaticEdgelessAndSingleton(t *testing.T) {
	// Edgeless graph on 4 vertices: χ(t) = t^4.
	p, err := NewProblem(graph.New(4))
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coeffs, err := p.Coefficients(proof)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range coeffs {
		want := int64(0)
		if i == 4 {
			want = 1
		}
		if c.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("edgeless: c_%d = %v", i, c)
		}
	}
}

func TestProblemValidation(t *testing.T) {
	if _, err := NewProblem(graph.New(0)); err == nil {
		t.Fatal("empty graph must be rejected")
	}
}

func TestInterpolationUtility(t *testing.T) {
	// p(x) = x^2 - 3x + 2 through points 0..2.
	coeffs, err := interp.LagrangeInt([]int64{0, 1, 2}, []*big.Int{
		big.NewInt(2), big.NewInt(0), big.NewInt(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, -3, 1}
	for i, w := range want {
		if coeffs[i].Cmp(big.NewInt(w)) != 0 {
			t.Fatalf("c_%d = %v, want %d", i, coeffs[i], w)
		}
	}
	// Non-integral result must error.
	if _, err := interp.LagrangeInt([]int64{0, 2}, []*big.Int{big.NewInt(0), big.NewInt(1)}); err == nil {
		t.Fatal("want non-integral error")
	}
	// Duplicate points must error.
	if _, err := interp.LagrangeInt([]int64{1, 1}, []*big.Int{big.NewInt(0), big.NewInt(1)}); err == nil {
		t.Fatal("want duplicate-point error")
	}
}
