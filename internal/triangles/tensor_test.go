package triangles

// Tests of the group-tensor plan: bit for bit against Evaluate, the
// block evaluator and referenceP; the rule that selects it; verification
// refusing a wrong tensor; its allocations; and a fuzzer.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/plan"
	"camelot/internal/tensor"
)

// topPrime is the largest prime the field package accepts, below 2^62.
func topPrime() uint64 {
	top := uint64(ff.MaxPrime)
	for !ff.IsPrime(top) {
		top -= 2
	}
	return top
}

func TestGroupTensorMatchesEvaluate(t *testing.T) {
	// The plan Compile returns at each geometry below is the group tensor,
	// and at every grid point z0 ∈ [1, R/m'], the first point past the
	// grid, q−1 and large off-grid points it must equal the verifier's
	// Evaluate and referenceP bit for bit, over the 2^61 floor and the
	// largest prime below 2^62; the grid values must sum to the trace.
	for _, tc := range []struct {
		name    string
		base    tensor.Decomposition
		g       *graph.Graph
		groups  int
		side    int
		nPoints int
	}{
		{"eval_bound_p0.2", tensor.Strassen(), graph.Gnp(128, 0.2, 1), 16, 32, 49},
		{"eval_bound_p0.5", tensor.Strassen(), graph.Gnp(128, 0.5, 2), 16, 32, 49},
		{"strassen_n16", tensor.Strassen(), graph.Gnp(16, 0.5, 3), 4, 8, 7},
		{"trivial2_n128", tensor.Trivial(2), graph.Gnp(128, 0.5, 4), 16, 32, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewProblem(tc.g, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			if p.nParts != tc.nPoints {
				t.Fatalf("%d parts, want %d", p.nParts, tc.nPoints)
			}
			trace := 6 * CountNaive(tc.g)
			for _, q := range []uint64{ff.NextPrime(1 << 61), topPrime()} {
				f := ff.Must(q)
				pl, err := p.Compile(f)
				if err != nil {
					t.Fatal(err)
				}
				gt, ok := pl.(*groupTensor)
				if !ok || gt.g != tc.groups || gt.tr.side != tc.side {
					t.Fatalf("q=%d: compiled %T, want a group tensor of %d groups over side %d", q, pl, tc.groups, tc.side)
				}
				var xs []uint64
				for z0 := uint64(1); z0 <= uint64(p.nParts)+1; z0++ {
					xs = append(xs, z0)
				}
				xs = append(xs, q-1, q-2, 1<<40+7, q/2+3)
				rows, err := gt.EvaluateBlock(xs)
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceP(f, adjacencyEntries(tc.g, p.dc), p.dc, p.ell, xs)
				sum := uint64(0)
				for i, x := range xs {
					want, err := p.Evaluate(q, x)
					if err != nil {
						t.Fatal(err)
					}
					if rows[i][0] != want[0] || rows[i][0] != ref[i] {
						t.Fatalf("q=%d z0=%d: tensor %d, Evaluate %d, reference %d", q, x, rows[i][0], want[0], ref[i])
					}
					if x <= uint64(p.nParts) {
						sum = f.Add(sum, rows[i][0])
					}
				}
				if sum != f.ReduceU(trace) {
					t.Fatalf("q=%d: grid sum %d, want trace %d", q, sum, trace)
				}
			}
		})
	}
}

func TestGroupTensorRule(t *testing.T) {
	// Compile takes the group tensor at eval_bound's n=128 and keeps the
	// block product at serve_cold's n=36 and ctrl_workers' n=48 (G³ >=
	// side³ there) and at ℓ = 6, n=256 (a Yates level above the block),
	// over several graph seeds of each.
	for _, c := range []struct {
		n      int
		p      float64
		tensor bool
	}{
		{128, 0.2, true}, {128, 0.5, true}, {36, 0.3, false}, {48, 0.2, false}, {256, 0.3, false},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			p, err := NewProblem(graph.Gnp(c.n, c.p, seed), tensor.Strassen())
			if err != nil {
				t.Fatal(err)
			}
			if c.n == 256 && p.ell != 6 {
				t.Fatalf("n=256 seed %d: ℓ=%d, want 6", seed, p.ell)
			}
			pl, err := p.Compile(ff.Must(ff.NextPrime(1 << 61)))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := pl.(*groupTensor); ok != c.tensor {
				t.Errorf("n=%d p=%v seed %d: compiled %T, group tensor wanted: %v", c.n, c.p, seed, pl, c.tensor)
			}
		}
	}
}

// wrongTensor is the triangle problem whose compiled group tensor has
// one entry raised by one.
type wrongTensor struct{ *Problem }

func (w wrongTensor) Compile(f ff.Field) (plan.Plan, error) {
	pl, err := w.Problem.Compile(f)
	if err != nil {
		return nil, err
	}
	gt, ok := pl.(*groupTensor)
	if !ok {
		return nil, fmt.Errorf("compiled %T, not a group tensor", pl)
	}
	wrong := *gt
	wrong.t = append([]uint16(nil), gt.t...)
	wrong.t[(5*gt.g+9)*gt.g+2]++
	return &wrong, nil
}

func TestVerifierRefusesWrongTensor(t *testing.T) {
	// The nodes evaluate through the group tensor and the verifier through
	// Evaluate's block product, which shares none of it. A wrong T entry
	// makes every node's values one consistent but wrong polynomial: it
	// decodes cleanly and must then be refused by verification.
	p, err := NewProblem(graph.Gnp(128, 0.2, 1), tensor.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		_, _, err := core.Run(context.Background(), wrongTensor{p}, core.Options{Nodes: 4, Seed: seed})
		if !errors.Is(err, core.ErrVerificationFailed) {
			t.Fatalf("seed %d: run with a wrong tensor returned %v, want %v", seed, err, core.ErrVerificationFailed)
		}
	}
	if _, rep, err := core.Run(context.Background(), p, core.Options{Nodes: 4, Seed: 1}); err != nil || !rep.Verified {
		t.Fatalf("the same run with the right tensor: verified %v, %v", rep.Verified, err)
	}
}

// blockAllocs returns the allocations and bytes of one EvaluateBlock.
func blockAllocs(tb testing.TB, pl plan.Plan, xs []uint64) (allocs, bytes uint64) {
	const runs = 64
	if _, err := pl.EvaluateBlock(xs); err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		pl.EvaluateBlock(xs)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

func TestGroupTensorAllocations(t *testing.T) {
	// At eval_bound a block of the group-tensor plan builds none of the
	// three side²-word scatter vectors the block plan needs: beside the
	// block plan over the same triple it allocates two fewer objects (the
	// three vectors against its 2G² words of y·z products) and more than
	// two vectors' bytes fewer — with one vector built the gap would be
	// 2·side² − 2G² words. The margin absorbs what other goroutines
	// allocate while the counts run.
	tr := evalBoundTriple(t, 5)
	gt := tr.tensorPlan()
	if gt == nil {
		t.Fatal("eval_bound has no group-tensor plan")
	}
	xs := make([]uint64, 32)
	for i := range xs {
		xs[i] = uint64(100 + i)
	}
	blockN, blockBytes := blockAllocs(t, tr, xs)
	tensorN, tensorBytes := blockAllocs(t, gt, xs)
	saved := uint64(2*tr.side*tr.side) * 8
	if tensorN+2 > blockN || tensorBytes+saved >= blockBytes {
		t.Fatalf("a tensor block allocates %d objects, %d bytes; a block-plan block %d, %d — want at least 2 objects and over %d bytes fewer",
			tensorN, tensorBytes, blockN, blockBytes, saved)
	}
}

// FuzzTrianglePlan builds a graph and a base from the bytes — n from the
// first, the base from the second, ℓ from the third, the prime from the
// fourth, one edge bit per vertex pair from the rest — at an ℓ whose
// inner digits are one block (cut = ℓ) of at most 64 groups, whether or
// not the rule would pick the tensor there, and holds the group-tensor
// plan to the block evaluator.
func FuzzTrianglePlan(f *testing.F) {
	f.Add([]byte{14, 0, 0, 1, 0xff, 0x0f, 0xa5, 0x3c})
	f.Add([]byte{20, 1, 1, 0, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a})
	f.Add([]byte{9, 2, 2, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{2})
	bases := []tensor.Decomposition{tensor.Strassen(), tensor.Trivial(2), tensor.Trivial(3)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%30
		g := graph.New(n)
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if i := 4 + bit/8; i < len(data) && data[i]>>(bit%8)&1 == 1 {
					g.AddEdge(u, v)
				}
				bit++
			}
		}
		dc, _ := bases[int(data[1])%len(bases)].ForSize(n)
		var ells []int // ℓ with cut = ℓ and at most 64 groups
		for ell, side := 0, 1; ell <= dc.T && side <= blockSide; ell, side = ell+1, side*dc.N0 {
			if groups := pow(dc.N0*dc.N0, dc.T-ell); groups <= 64 {
				ells = append(ells, ell)
			}
		}
		if len(ells) == 0 {
			return
		}
		ell := ells[int(data[2])%len(ells)]
		nParts := pow(dc.R0, dc.T-ell)
		q := []uint64{ff.NextPrime(uint64(3*nParts + 2)), ff.NextPrime(1 << 61), topPrime()}[int(data[3])%3]
		tr, err := newSparseTriple(ff.Must(q), adjacencyEntries(g, dc), dc, ell)
		if err != nil {
			t.Fatal(err)
		}
		if tr.levels != 0 {
			t.Fatalf("N0=%d T=%d ℓ=%d: %d levels above the block", dc.N0, dc.T, ell, tr.levels)
		}
		gt := newGroupTensor(tr)
		if gt == nil {
			t.Fatal("no group tensor for a graph's entries")
		}
		xs := []uint64{1, uint64(nParts), uint64(nParts) + 1, uint64(nParts) + 2, q - 1, uint64(data[0])<<40 | uint64(data[2])}
		rows, err := gt.EvaluateBlock(xs)
		if err != nil {
			t.Fatal(err)
		}
		e := tr.evaluator()
		for i, x := range xs {
			if want := e.atBasis(e.ea.Basis(x)); rows[i][0] != want {
				t.Fatalf("n=%d N0=%d ℓ=%d q=%d z0=%d: tensor %d, block %d", n, dc.N0, ell, q, x, rows[i][0], want)
			}
		}
	})
}

func pow(b, e int) int {
	out := 1
	for range e {
		out *= b
	}
	return out
}
