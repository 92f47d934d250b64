package partition

import (
	"math/bits"
	"testing"

	"camelot/internal/bipoly"
	"camelot/internal/ff"
)

var testField = ff.Must(1048583)

func TestSplitValidation(t *testing.T) {
	if _, err := NewSplit(4, []int{0, 1}, []int{2}); err == nil {
		t.Fatal("incomplete split must be rejected")
	}
	if _, err := NewSplit(3, []int{0, 1}, []int{1}); err == nil {
		t.Fatal("overlapping split must be rejected")
	}
	if _, err := NewSplit(3, []int{0, 5}, []int{1}); err == nil {
		t.Fatal("out-of-range element must be rejected")
	}
	if _, err := NewSplit(60, nil, seq(0, 60)); err == nil {
		t.Fatal("oversized B must be rejected")
	}
	if _, err := NewSplit(4, []int{0, 1}, []int{2, 3}); err != nil {
		t.Fatalf("valid split rejected: %v", err)
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestBalancedAndTripartiteShapes(t *testing.T) {
	for n := 1; n <= 15; n++ {
		b := Balanced(n)
		if len(b.E)+len(b.B) != n || len(b.B) != n/2 {
			t.Fatalf("Balanced(%d): |E|=%d |B|=%d", n, len(b.E), len(b.B))
		}
		tr := Tripartite(n)
		if len(tr.E)+len(tr.B) != n || len(tr.B) != n/3 {
			t.Fatalf("Tripartite(%d): |E|=%d |B|=%d", n, len(tr.E), len(tr.B))
		}
	}
}

func TestDegreeAndTargetIndex(t *testing.T) {
	s := Balanced(6) // |B| = 3
	if got := s.Degree(); got != 3*4 {
		t.Fatalf("Degree = %d, want |B|·2^{|B|-1} = 12", got)
	}
	if got := s.TargetIndex(); got != 7 {
		t.Fatalf("TargetIndex = %d, want 2^3-1 = 7", got)
	}
	// Degenerate |B| = 0.
	if got := Balanced(1).Degree(); got != 0 {
		t.Fatalf("Degree(|B|=0) = %d", got)
	}
}

func TestXPowers(t *testing.T) {
	s := Balanced(8) // |B| = 4, weights 1,2,4,8
	f := testField
	x0 := uint64(7)
	xp := s.NewXPowers(f, x0)
	// mask 0b1011 has weight 1+2+8 = 11.
	want := f.Exp(7, 11)
	if got := xp.ForMask(0b1011); got != want {
		t.Fatalf("ForMask = %d, want %d", got, want)
	}
	if got := xp.ForMask(0); got != 1 {
		t.Fatalf("empty mask = %d, want 1", got)
	}
}

// TestEvaluateAllAgainstDirectSumProduct instantiates the template for a
// tiny explicit set function and compares P_t(x0) against a brute-force
// computation of the coefficients p_s (paper eq. (25)) followed by
// Horner evaluation.
func TestEvaluateAllAgainstDirectSumProduct(t *testing.T) {
	const n = 4
	s := Balanced(n) // E = {0,1}, B = {2,3} with weights 1,2
	f := testField
	// f(X) = |X| + 1 for a nontrivial non-indicator set function.
	setf := func(mask uint64) uint64 { return uint64(bits.OnesCount64(mask)) + 1 }

	for _, x0 := range []uint64{3, 17, 100000} {
		// Template path: build g per eq. (27) directly (quadratic in 2^n,
		// fine at n=4), then EvaluateAll.
		ring := s.Ring(f)
		xp := s.NewXPowers(f, x0)
		g := make([]bipoly.Poly, 1<<uint(len(s.E)))
		for y := uint64(0); y < 1<<uint(len(s.E)); y++ {
			acc := ring.Zero()
			for x := uint64(0); x < 1<<uint(n); x++ {
				xe := x & 0b11
				xb := x >> 2
				if xe&^y != 0 {
					continue
				}
				mono := ring.Monomial(bits.OnesCount64(xe), bits.OnesCount64(xb), f.Mul(setf(x), xp.ForMask(xb)))
				acc = ring.AddInPlace(acc, mono)
			}
			g[y] = acc
		}
		for _, tMax := range []int{1, 2, 3} {
			got, err := s.EvaluateAll(ring, g, tMax)
			if err != nil {
				t.Fatal(err)
			}
			for tt := 1; tt <= tMax; tt++ {
				want := directProofEval(f, s, setf, tt, x0)
				if got[tt-1] != want {
					t.Fatalf("x0=%d t=%d: template=%d direct=%d", x0, tt, got[tt-1], want)
				}
			}
		}
	}
}

// directProofEval computes P_t(x0) from the definition: enumerate all
// ordered t-tuples of subsets, keep those with multiset union E + M for
// a size-|B| multiset M, and weight by x0^{ΣM}.
func directProofEval(f ff.Field, s Split, setf func(uint64) uint64, t int, x0 uint64) uint64 {
	n := s.N
	ne := len(s.E)
	nb := len(s.B)
	total := uint64(0)
	tuple := make([]uint64, t)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == t {
			// Element multiplicities.
			counts := make([]int, n)
			for _, x := range tuple {
				for v := 0; v < n; v++ {
					if x&(1<<uint(v)) != 0 {
						counts[v]++
					}
				}
			}
			// E elements exactly once.
			for i := 0; i < ne; i++ {
				if counts[i] != 1 {
					return
				}
			}
			// B multiset size |B|, weight = Σ counts · 2^i.
			size := 0
			weight := uint64(0)
			for i := 0; i < nb; i++ {
				size += counts[ne+i]
				weight += uint64(counts[ne+i]) << uint(i)
			}
			if size != nb {
				return
			}
			prod := f.Exp(x0, weight)
			for _, x := range tuple {
				prod = f.Mul(prod, setf(x))
			}
			total = f.Add(total, prod)
			return
		}
		for x := uint64(0); x < 1<<uint(n); x++ {
			tuple[depth] = x
			rec(depth + 1)
		}
	}
	rec(0)
	return total
}

func TestEvaluateAllRejectsBadTable(t *testing.T) {
	s := Balanced(4)
	ring := s.Ring(testField)
	if _, err := s.EvaluateAll(ring, make([]bipoly.Poly, 3), 1); err == nil {
		t.Fatal("want table-length error")
	}
}

func TestWeightSumIsMaskValue(t *testing.T) {
	s := Balanced(10)
	for _, mask := range []uint64{0, 1, 0b10110, 31} {
		if got := s.WeightSum(mask); got != mask {
			t.Fatalf("WeightSum(%b) = %d", mask, got)
		}
	}
}
