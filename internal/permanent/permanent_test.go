package permanent

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"camelot/internal/core"
	"camelot/internal/ff"
)

func randMatrix(rng *rand.Rand, n int, lo, hi int64) [][]int64 {
	a := make([][]int64, n)
	for i := range a {
		a[i] = make([]int64, n)
		for j := range a[i] {
			a[i][j] = lo + rng.Int63n(hi-lo+1)
		}
	}
	return a
}

func TestNaiveKnown(t *testing.T) {
	// per [[1,2],[3,4]] = 1*4 + 2*3 = 10.
	a := [][]int64{{1, 2}, {3, 4}}
	if got := Naive(a); got.Cmp(big.NewInt(10)) != 0 {
		t.Fatalf("got %v, want 10", got)
	}
	// All-ones 3x3: 3! = 6.
	ones := [][]int64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	if got := Naive(ones); got.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("got %v, want 6", got)
	}
	// Identity: 1.
	id := [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if got := Naive(id); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("got %v, want 1", got)
	}
}

func TestRyserMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 2; n <= 7; n++ {
		a := randMatrix(rng, n, -3, 3)
		if got, want := Ryser(a), Naive(a); got.Cmp(want) != 0 {
			t.Fatalf("n=%d: ryser=%v naive=%v", n, got, want)
		}
	}
}

func TestCamelotMatchesRyser(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 4, 5, 6, 8} {
		a := randMatrix(rng, n, 0, 2)
		want := Ryser(a)
		p, err := NewProblem(a)
		if err != nil {
			t.Fatal(err)
		}
		proof, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 3, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified {
			t.Fatal("not verified")
		}
		got, err := p.Recover(proof)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("n=%d: camelot=%v ryser=%v", n, got, want)
		}
	}
}

func TestCamelotNegativeEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 6, -5, 5)
	want := Ryser(a)
	p, err := NewProblem(a)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Recover(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("camelot=%v ryser=%v", got, want)
	}
	if want.Sign() >= 0 {
		t.Log("note: drawn matrix had non-negative permanent; signed path still exercised via CRT range")
	}
}

func TestCamelotWithByzantineFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 6, 0, 1)
	want := Ryser(a)
	p, err := NewProblem(a)
	if err != nil {
		t.Fatal(err)
	}
	// Two byzantine nodes: the radius must cover two full node blocks.
	d := p.Degree()
	k := 8
	ft := 0
	for {
		e := d + 1 + 2*ft
		if ft >= 2*((e+k-1)/k) {
			break
		}
		ft++
	}
	proof, rep, err := core.Run(context.Background(), p, core.Options{
		Nodes: k, FaultTolerance: ft, Adversary: core.Adversary{Seed: 6, Liars: []int{1, 5}}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Recover(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("camelot=%v ryser=%v", got, want)
	}
	badSet := map[int]bool{1: true, 5: true}
	for _, s := range rep.SuspectNodes {
		if !badSet[s] {
			t.Fatalf("honest node %d implicated", s)
		}
	}
}

func TestPermanentZeroMatrix(t *testing.T) {
	a := [][]int64{{0, 0}, {0, 0}}
	p, err := NewProblem(a)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := core.Run(context.Background(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Recover(proof)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("got %v, want 0", got)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewProblem([][]int64{{1}}); err == nil {
		t.Fatal("n=1 must be rejected")
	}
	if _, err := NewProblem([][]int64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix must be rejected")
	}
}

func BenchmarkRyser12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 12, 0, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Ryser(a)
	}
}

func TestEvaluateBlockEmpty(t *testing.T) {
	p, err := NewProblem([][]int64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ff.New(1048583)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pl.EvaluateBlock(nil)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty block: rows=%v err=%v", rows, err)
	}
}

// BenchmarkEvaluateBlock times one compiled block at the decode_bound
// geometry (n = 12 over a 2^61-floor prime, the modulus every proof
// prime sits at or above, 160 consecutive points off the grid); ns/op ÷
// 160 is the plan's cost per point.
func BenchmarkEvaluateBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p, err := NewProblem(randMatrix(rng, 12, 0, 3))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := p.Compile(ff.Must(ff.NextPrime(1 << 61)))
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]uint64, 160)
	for i := range xs {
		xs[i] = uint64(1000 + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.EvaluateBlock(xs); err != nil {
			b.Fatal(err)
		}
	}
}
