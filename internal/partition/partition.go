// Package partition implements the paper's §7 proof template for
// partitioning sum-products: computing
//
//	Σ f(X_1) f(X_2) ··· f(X_t)   over ordered partitions
//	X_1 ∪ ... ∪ X_t = U, X_i ∩ X_j = ∅
//
// of an n-element universe. The universe is split U = E ∪ B; subsets of
// the explicit part E are tracked exactly while the "bit" part B is
// tracked through Kronecker-substitution weights (element B[i] carries
// weight 2^i), giving a univariate proof polynomial
//
//	P(x) = Σ_s p_s x^s,  deg P = |B|·2^{|B|-1},
//
// whose coefficient p_{2^{|B|}-1} is the desired sum-product (§7.2).
// Instantiations (exact set covers §8, chromatic polynomial §9, Tutte
// polynomial §10) supply the node function g of eq. (27); the template
// turns g into evaluations of P via the inclusion–exclusion of eq. (28).
package partition

import (
	"fmt"
	"math/bits"

	"camelot/internal/bipoly"
	"camelot/internal/ff"
)

// Split fixes the bisection U = E ∪ B of the ground set {0..n-1}.
// Element B[i] carries Kronecker weight 2^i.
type Split struct {
	// N is the universe size.
	N int
	// E lists the explicit elements, B the bit elements; together they
	// partition {0..N-1}.
	E, B []int
}

// NewSplit validates and returns a split.
func NewSplit(n int, e, b []int) (Split, error) {
	if len(e)+len(b) != n {
		return Split{}, fmt.Errorf("partition: |E|+|B| = %d+%d != n = %d", len(e), len(b), n)
	}
	seen := make([]bool, n)
	for _, v := range append(append([]int{}, e...), b...) {
		if v < 0 || v >= n || seen[v] {
			return Split{}, fmt.Errorf("partition: element %d repeated or out of range", v)
		}
		seen[v] = true
	}
	if len(b) > 25 {
		return Split{}, fmt.Errorf("partition: |B| = %d too large (degree would be |B|·2^{|B|-1})", len(b))
	}
	return Split{N: n, E: e, B: b}, nil
}

// Balanced returns the §7.4 split with |E| = ⌈n/2⌉, |B| = ⌊n/2⌋
// (the optimum when the node budget is O*(2^{|E|} + 2^{|B|})): E takes
// the low-numbered elements.
func Balanced(n int) Split {
	nb := n / 2
	ne := n - nb
	e := make([]int, ne)
	b := make([]int, nb)
	for i := range e {
		e[i] = i
	}
	for i := range b {
		b[i] = ne + i
	}
	s, err := NewSplit(n, e, b)
	if err != nil {
		panic(err) // unreachable by construction
	}
	return s
}

// Tripartite returns the §10 split with |B| = ⌊n/3⌋ and E the rest
// (Tutte needs |E| ≈ 2|B| because its node function multiplies
// 2^{|E|/2} × 2^{|B|} matrices).
func Tripartite(n int) Split {
	nb := n / 3
	ne := n - nb
	e := make([]int, ne)
	b := make([]int, nb)
	for i := range e {
		e[i] = i
	}
	for i := range b {
		b[i] = ne + i
	}
	s, err := NewSplit(n, e, b)
	if err != nil {
		panic(err) // unreachable by construction
	}
	return s
}

// Degree returns the proof-polynomial degree bound |B|·2^{|B|-1}
// (coefficient index s ranges over achievable multiset weight sums).
func (s Split) Degree() int {
	if len(s.B) == 0 {
		return 0
	}
	return len(s.B) << uint(len(s.B)-1)
}

// TargetIndex returns 2^{|B|}-1: the coefficient p_{2^{|B|}-1} of P is
// the partitioning sum-product (the unique multiset of |B| weights
// summing there is B itself).
func (s Split) TargetIndex() int { return 1<<uint(len(s.B)) - 1 }

// Weight returns the Kronecker weight of the i-th B element, 2^i.
func (s Split) Weight(i int) uint64 { return 1 << uint(i) }

// WeightSum returns Σ weights over a mask of B indices.
func (s Split) WeightSum(bMask uint64) uint64 {
	// Weights are 2^i for bit i, so the sum is the mask value itself.
	return bMask
}

// Ring returns the truncated bivariate ring the template computes in:
// degrees (|E|, |B|).
func (s Split) Ring(f ff.Field) bipoly.Ring {
	return bipoly.NewRing(f, len(s.E), len(s.B))
}

// XPowers precomputes x0^{2^i} mod q for i = 0..|B|-1 and extends to
// x0^{weight sum of any B mask} via products: XPowers(mask) in O(|B|)
// from the table.
type XPowers struct {
	f   ff.Field
	pow []uint64 // pow[i] = x0^{2^i}
}

// NewXPowers builds the table for x0.
func (s Split) NewXPowers(f ff.Field, x0 uint64) XPowers {
	pow := make([]uint64, len(s.B))
	cur := x0 % f.Q
	for i := range pow {
		pow[i] = cur
		cur = f.Mul(cur, cur)
	}
	return XPowers{f: f, pow: pow}
}

// ForMask returns x0^{Σ_{i∈mask} 2^i}.
func (xp XPowers) ForMask(bMask uint64) uint64 {
	out := uint64(1)
	for i := 0; bMask != 0; i++ {
		if bMask&1 == 1 {
			out = xp.f.Mul(out, xp.pow[i])
		}
		bMask >>= 1
	}
	return out
}

// EvaluateAll computes P_t(x0) for t = 1..tMax from a node-function
// table g (indexed by masks over E, length 2^{|E|}) via eq. (28):
//
//	a_t(w_E, w_B) = Σ_{Y⊆E} (-1)^{|E\Y|} g(Y)^t,
//	P_t(x0) = [w_E^{|E|} w_B^{|B|}] a_t.
//
// Powers are maintained incrementally across t, so the total cost is
// 2^{|E|}·tMax bivariate multiplications.
func (s Split) EvaluateAll(r bipoly.Ring, g []bipoly.Poly, tMax int) ([]uint64, error) {
	ne := len(s.E)
	if len(g) != 1<<uint(ne) {
		return nil, fmt.Errorf("partition: g table has %d entries, want 2^%d", len(g), ne)
	}
	signs := make([]bool, len(g)) // true = negative
	for y := range signs {
		signs[y] = (ne-bits.OnesCount64(uint64(y)))%2 == 1
	}
	out := make([]uint64, tMax)
	pow := make([]bipoly.Poly, len(g))
	for y := range pow {
		pow[y] = g[y]
	}
	f := r.F
	for t := 1; t <= tMax; t++ {
		if t > 1 {
			for y := range pow {
				pow[y] = r.Mul(pow[y], g[y])
			}
		}
		acc := uint64(0)
		for y := range pow {
			c := r.Coeff(pow[y], ne, len(s.B))
			if signs[y] {
				acc = f.Sub(acc, c)
			} else {
				acc = f.Add(acc, c)
			}
		}
		out[t-1] = acc
	}
	return out, nil
}
