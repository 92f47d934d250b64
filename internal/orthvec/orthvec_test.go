package orthvec

import (
	"context"
	"math/rand"
	"testing"

	"camelot/internal/core"
)

func randBool(rng *rand.Rand, n, t int, density float64) *BoolMatrix {
	bits := make([]uint8, n*t)
	for i := range bits {
		if rng.Float64() < density {
			bits[i] = 1
		}
	}
	m, err := NewBoolMatrix(n, t, bits)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewBoolMatrixValidation(t *testing.T) {
	if _, err := NewBoolMatrix(2, 2, []uint8{0, 1, 1}); err == nil {
		t.Fatal("want length error")
	}
	if _, err := NewBoolMatrix(2, 2, []uint8{0, 1, 1, 2}); err == nil {
		t.Fatal("want non-Boolean error")
	}
	if _, err := NewBoolMatrix(0, 2, nil); err == nil {
		t.Fatal("want shape error")
	}
}

func TestOVCamelotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ n, t int }{{5, 4}, {12, 8}, {20, 6}}
	for _, c := range cases {
		a := randBool(rng, c.n, c.t, 0.3)
		b := randBool(rng, c.n, c.t, 0.3)
		p, err := NewOVProblem(a, b)
		if err != nil {
			t.Fatal(err)
		}
		proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified {
			t.Fatal("not verified")
		}
		got, err := p.Counts(proof)
		if err != nil {
			t.Fatal(err)
		}
		want := CountOrthogonalNaive(a, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d t=%d: c_%d = %d, want %d", c.n, c.t, i+1, got[i], want[i])
			}
		}
	}
}

func TestOVWithByzantineNode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randBool(rng, 10, 5, 0.4)
	b := randBool(rng, 10, 5, 0.4)
	p, err := NewOVProblem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Degree()
	k := 5
	f := 0
	for {
		e := d + 1 + 2*f
		if f >= (e+k-1)/k {
			break
		}
		f++
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{
		Nodes: k, FaultTolerance: f, Adversary: core.Adversary{Seed: 8, Liars: []int{0}}, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Counts(proof)
	if err != nil {
		t.Fatal(err)
	}
	want := CountOrthogonalNaive(a, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("c_%d = %d, want %d", i+1, got[i], want[i])
		}
	}
	for _, s := range rep.SuspectNodes {
		if s != 0 {
			t.Fatalf("honest node %d implicated", s)
		}
	}
}

func TestOVDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randBool(rng, 4, 3, 0.5)
	b := randBool(rng, 4, 5, 0.5)
	if _, err := NewOVProblem(a, b); err == nil {
		t.Fatal("want dimension error")
	}
}

func TestOVAllZerosAndAllOnes(t *testing.T) {
	// All-zero A: every pair orthogonal.
	zeros, _ := NewBoolMatrix(4, 3, make([]uint8, 12))
	ones, _ := NewBoolMatrix(4, 3, []uint8{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	p, err := NewOVProblem(zeros, ones)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Counts(proof)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != 4 {
			t.Fatalf("c_%d = %d, want 4", i+1, c)
		}
	}
	total, err := p.TotalPairs(proof)
	if err != nil {
		t.Fatal(err)
	}
	if total.Int64() != 16 {
		t.Fatalf("total = %v, want 16", total)
	}
}

func TestHammingCamelotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ n, t int }{{4, 3}, {8, 5}, {10, 4}}
	for _, c := range cases {
		a := randBool(rng, c.n, c.t, 0.5)
		b := randBool(rng, c.n, c.t, 0.5)
		p, err := NewHammingProblem(a, b)
		if err != nil {
			t.Fatal(err)
		}
		proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 4, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified {
			t.Fatal("not verified")
		}
		got, err := p.Distribution(proof)
		if err != nil {
			t.Fatal(err)
		}
		want := HammingDistributionNaive(a, b)
		for i := range want {
			for h := range want[i] {
				if got[i][h] != want[i][h] {
					t.Fatalf("n=%d t=%d: c_{%d,%d} = %d, want %d", c.n, c.t, i+1, h, got[i][h], want[i][h])
				}
			}
		}
	}
}

func TestHammingRowSumsEqualN(t *testing.T) {
	// Σ_h c_ih = |B| for every i: a structural invariant.
	rng := rand.New(rand.NewSource(6))
	a := randBool(rng, 6, 4, 0.5)
	b := randBool(rng, 6, 4, 0.5)
	p, err := NewHammingProblem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := p.Distribution(proof)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range dist {
		sum := int64(0)
		for _, c := range row {
			sum += c
		}
		if sum != 6 {
			t.Fatalf("row %d sums to %d, want 6", i+1, sum)
		}
	}
}

func TestHammingIdenticalMatrices(t *testing.T) {
	// A == B: c_{i,0} >= 1 (row i matches itself at distance 0).
	rng := rand.New(rand.NewSource(7))
	a := randBool(rng, 5, 3, 0.5)
	p, err := NewHammingProblem(a, a)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := p.Distribution(proof)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range dist {
		if row[0] < 1 {
			t.Fatalf("row %d: distance-0 count %d, want >= 1", i+1, row[0])
		}
	}
}
