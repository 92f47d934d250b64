package cnfsat

import (
	"context"
	"math/big"
	"testing"

	"camelot/internal/core"
)

func TestCountBruteKnown(t *testing.T) {
	tests := []struct {
		name string
		f    *Formula
		want int64
	}{
		// (x1 ∨ x2): 3 of 4 assignments.
		{"or", &Formula{V: 2, Clauses: [][]int{{1, 2}}}, 3},
		// (x1) ∧ (¬x1): unsatisfiable.
		{"contradiction", &Formula{V: 2, Clauses: [][]int{{1}, {-1}}}, 0},
		// (x1 ∨ ¬x2) ∧ (x2 ∨ x3): count by hand = 4.
		{"mixed", &Formula{V: 3, Clauses: [][]int{{1, -2}, {2, 3}}}, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CountBrute(tt.f); got.Cmp(big.NewInt(tt.want)) != 0 {
				t.Fatalf("got %v, want %d", got, tt.want)
			}
		})
	}
}

func TestCamelotMatchesBrute(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		f := RandomFormula(8, 10, 3, seed)
		want := CountBrute(f)
		p, err := NewProblem(f)
		if err != nil {
			t.Fatal(err)
		}
		proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified {
			t.Fatal("not verified")
		}
		got, err := p.CountSolutions(proof)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %d: camelot=%v brute=%v", seed, got, want)
		}
	}
}

func TestCamelotOddVariableCount(t *testing.T) {
	f := RandomFormula(7, 8, 2, 3)
	want := CountBrute(f)
	p, err := NewProblem(f)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.CountSolutions(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCamelotWithByzantineFaults(t *testing.T) {
	f := RandomFormula(6, 6, 3, 9)
	want := CountBrute(f)
	p, err := NewProblem(f)
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
		Nodes: k, FaultTolerance: ft, Adversary: core.Adversary{Seed: 1, Equivocators: []int{4}}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.CountSolutions(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
	for _, s := range rep.SuspectNodes {
		if s != 4 {
			t.Fatalf("honest node %d implicated", s)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewProblem(&Formula{V: 1, Clauses: [][]int{{1}}}); err == nil {
		t.Fatal("v=1 must be rejected")
	}
	if _, err := NewProblem(&Formula{V: 3, Clauses: nil}); err == nil {
		t.Fatal("no clauses must be rejected")
	}
	if _, err := NewProblem(&Formula{V: 3, Clauses: [][]int{{}}}); err == nil {
		t.Fatal("empty clause must be rejected")
	}
	if _, err := NewProblem(&Formula{V: 3, Clauses: [][]int{{5}}}); err == nil {
		t.Fatal("out-of-range literal must be rejected")
	}
	if _, err := NewProblem(&Formula{V: 60, Clauses: [][]int{{1}}}); err == nil {
		t.Fatal("too many variables must be rejected")
	}
}

func TestTautologyAndFullCube(t *testing.T) {
	// (x1 ∨ ¬x1): all 2^4 assignments satisfy.
	f := &Formula{V: 4, Clauses: [][]int{{1, -1}}}
	p, err := NewProblem(f)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.CountSolutions(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("tautology count = %v, want 16", got)
	}
}
