package setcover

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"camelot/internal/core"
)

// randomFamily draws nonempty subsets of [n] without repetition concerns.
func randomFamily(rng *rand.Rand, n, size int) []uint64 {
	full := uint64(1)<<uint(n) - 1
	fam := make([]uint64, 0, size)
	for len(fam) < size {
		x := rng.Uint64() & full
		if x != 0 {
			fam = append(fam, x)
		}
	}
	return fam
}

func TestCountCoversIEMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		n := 4 + rng.Intn(3)
		fam := randomFamily(rng, n, 3+rng.Intn(4))
		for _, tt := range []int{1, 2, 3} {
			want := CountCoversBrute(fam, n, tt)
			got := CountCoversIE(fam, n, tt)
			if got.Cmp(want) != 0 {
				t.Fatalf("n=%d t=%d: IE=%v brute=%v", n, tt, got, want)
			}
		}
	}
}

func TestExactCoverCamelotMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 3; trial++ {
		n := 6
		fam := randomFamily(rng, n, 8)
		// Add singletons so some exact covers exist.
		for v := 0; v < n; v++ {
			fam = append(fam, 1<<uint(v))
		}
		for _, tt := range []int{2, 3, 4} {
			want := CountExactCoversBrute(fam, n, tt)
			p, err := NewExactCoverProblem(fam, n, tt)
			if err != nil {
				t.Fatal(err)
			}
			proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 3, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Verified {
				t.Fatal("not verified")
			}
			got, err := p.RecoverTuples(proof)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("trial %d n=%d t=%d: camelot=%v brute=%v", trial, n, tt, got, want)
			}
		}
	}
}

func TestExactCoverPartitionsOfCompleteSingletons(t *testing.T) {
	// Family = all singletons of [n]: exactly one partition into n parts,
	// n! ordered tuples.
	const n = 5
	fam := make([]uint64, n)
	for v := 0; v < n; v++ {
		fam[v] = 1 << uint(v)
	}
	p, err := NewExactCoverProblem(fam, n, n)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := p.RecoverPartitions(proof)
	if err != nil {
		t.Fatal(err)
	}
	if parts.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("partitions = %v, want 1", parts)
	}
	tuples, err := p.RecoverTuples(proof)
	if err != nil {
		t.Fatal(err)
	}
	if tuples.Cmp(big.NewInt(120)) != 0 {
		t.Fatalf("tuples = %v, want 5! = 120", tuples)
	}
}

func TestCoverCamelotMatchesIE(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 6
	fam := randomFamily(rng, n, 5)
	for _, tt := range []int{1, 2, 3} {
		want := CountCoversIE(fam, n, tt)
		p, err := NewCoverProblem(fam, n, tt)
		if err != nil {
			t.Fatal(err)
		}
		proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified {
			t.Fatal("not verified")
		}
		got, err := p.RecoverCovers(proof)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("t=%d: camelot=%v IE=%v", tt, got, want)
		}
	}
}

func TestCoverCamelotWithByzantineFault(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 5
	fam := randomFamily(rng, n, 4)
	p, err := NewCoverProblem(fam, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Cover a whole node's block: e = d+1+2f over 8 nodes.
	d := p.Degree()
	f := 0
	for {
		e := d + 1 + 2*f
		if f >= (e+7)/8 {
			break
		}
		f++
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{
		Nodes: 8, FaultTolerance: f, Adversary: core.NewLyingNodes(1, 6), Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RecoverCovers(proof)
	if err != nil {
		t.Fatal(err)
	}
	if want := CountCoversIE(fam, n, 2); got.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
	for _, s := range rep.SuspectNodes {
		if s != 6 {
			t.Fatalf("honest node %d implicated", s)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewExactCoverProblem([]uint64{0b11, 0}, 2, 1); err == nil {
		t.Fatal("empty set must be rejected for exact covers")
	}
	if _, err := NewExactCoverProblem([]uint64{0b111}, 2, 1); err == nil {
		t.Fatal("set outside universe must be rejected")
	}
	if _, err := NewExactCoverProblem([]uint64{0b1}, 1, 5); err == nil {
		t.Fatal("t > n must be rejected")
	}
	if _, err := NewCoverProblem([]uint64{0b1}, 1, 0); err == nil {
		t.Fatal("t = 0 must be rejected")
	}
	if _, err := NewCoverProblem([]uint64{0b1}, 70, 1); err == nil {
		t.Fatal("n > 62 must be rejected")
	}
}

func TestCoverEmptyFamily(t *testing.T) {
	p, err := NewCoverProblem(nil, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RecoverCovers(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("empty family covers = %v, want 0", got)
	}
}
