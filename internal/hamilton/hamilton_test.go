package hamilton

import (
	"context"
	"math/big"
	"testing"

	"camelot/internal/core"
	"camelot/internal/graph"
)

func TestCountDPKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"triangle", graph.Complete(3), 1},
		{"K4", graph.Complete(4), 3},
		{"K5", graph.Complete(5), 12},
		{"K6", graph.Complete(6), 60},
		{"C5", graph.Cycle(5), 1},
		{"path", graph.Path(5), 0},
		{"petersen (hypohamiltonian)", graph.Petersen(), 0},
		{"K33", graph.CompleteBipartite(3, 3), 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CountDP(tt.g); got.Cmp(big.NewInt(tt.want)) != 0 {
				t.Fatalf("got %v, want %d", got, tt.want)
			}
		})
	}
}

func TestCamelotMatchesDP(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"K5":     graph.Complete(5),
		"C6":     graph.Cycle(6),
		"gnp7":   graph.Gnp(7, 0.6, 1),
		"gnp8":   graph.Gnp(8, 0.5, 2),
		"sparse": graph.Gnp(8, 0.3, 3),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			want := CountDP(g)
			p, err := NewProblem(g)
			if err != nil {
				t.Fatal(err)
			}
			proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 3, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Verified {
				t.Fatal("not verified")
			}
			got, err := p.RecoverUndirected(proof)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("camelot=%v dp=%v", got, want)
			}
		})
	}
}

func TestCamelotWithByzantineFaults(t *testing.T) {
	g := graph.Complete(6)
	want := CountDP(g) // 60
	p, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Degree()
	k := 6
	ft := 0
	for {
		e := d + 1 + 2*ft
		if ft >= (e+k-1)/k {
			break
		}
		ft++
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{
		Nodes: k, FaultTolerance: ft, Adversary: core.Adversary{Seed: 5, Equivocators: []int{3}}, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RecoverUndirected(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("camelot=%v, want %v", got, want)
	}
	for _, s := range rep.SuspectNodes {
		if s != 3 {
			t.Fatalf("honest node %d implicated", s)
		}
	}
}

func TestHamiltonNoCycles(t *testing.T) {
	p, err := NewProblem(graph.Path(6))
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RecoverUndirected(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("path has %v hamilton cycles?", got)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewProblem(graph.New(2)); err == nil {
		t.Fatal("n=2 must be rejected")
	}
	if _, err := NewProblem(graph.New(40)); err == nil {
		t.Fatal("n=40 must be rejected (per-node table too large)")
	}
}

func TestCountPathsDPKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"P4 has one", graph.Path(4), 1},
		{"K3", graph.Complete(3), 3},  // 3!/2
		{"K4", graph.Complete(4), 12}, // 4!/2
		{"C5", graph.Cycle(5), 5},     // drop any edge
		{"star none", graph.CompleteBipartite(1, 3), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CountPathsDP(tt.g); got.Cmp(big.NewInt(tt.want)) != 0 {
				t.Fatalf("got %v, want %d", got, tt.want)
			}
		})
	}
}

func TestCamelotPathsMatchDP(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := graph.Gnp(7, 0.5, seed)
		want := CountPathsDP(g)
		p, err := NewPathProblem(g)
		if err != nil {
			t.Fatal(err)
		}
		proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified {
			t.Fatal("not verified")
		}
		got, err := p.RecoverUndirected(proof)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: camelot=%v dp=%v", seed, got, want)
		}
	}
}

func TestPathProblemValidation(t *testing.T) {
	if _, err := NewPathProblem(graph.New(1)); err == nil {
		t.Fatal("n=1 must be rejected")
	}
}
