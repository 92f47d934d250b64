package poly

// Subproduct-tree multipoint evaluation and interpolation (paper §2.2):
// evaluating or interpolating a degree-d polynomial at d+1 points in
// O(M(d) log d) field operations. These are the workhorses behind
// Reed–Solomon encoding (evaluation) and the Gao decoder's first step
// (interpolation of the received word).
//
// Everything here that depends on the points alone — the tree of
// subproducts and the interpolation weights 1/m'(x_i) — lives in a
// PointSet. A caller that meets the same points again and again (a
// Reed–Solomon code decodes every word at the same points) builds the set
// once; Ring.EvalMany and Ring.Interpolate build one, use it and drop it.

import (
	"camelot/internal/ff"
	"camelot/internal/par"
)

// fastThreshold is the point count below which naive O(d^2) evaluation /
// Lagrange interpolation is used directly (the tree overhead dominates
// below it).
const fastThreshold = 64

// parSpanMin is the subtree span (leaf count) from which the recursive
// tree walks fork their two children onto par workers; below it the
// token bookkeeping costs more than the subtree. The walks degrade to
// plain serial recursion when every worker is busy (par.Do is
// non-blocking), so nesting inside an already-parallel decode is safe.
const parSpanMin = 4 * fastThreshold

// PointSet is a fixed list of distinct evaluation points together with
// what multipoint evaluation and interpolation need of them: the
// subproduct tree, and — on a set built by NewPointSet — the inverse
// weights 1/m'(x_i) of m = Π (x - x_i). It is immutable after
// construction and safe for concurrent use. It holds O(n log n) field
// elements for n points.
type PointSet struct {
	r      *Ring
	points []uint64
	size   int // leaf slots of the tree: n rounded up to a power of two
	// node is the tree in heap layout, 1-based: node[k] = Π (x - x_i) over
	// the leaves under k, leaf size+i is (x - x_i), and a leaf slot past
	// the last point is the constant 1. node[1] is the full product.
	node [][]uint64
	invW []uint64 // 1/m'(x_i); nil on a set built for evaluation alone
}

// NewPointSet builds the subproduct tree and interpolation weights over
// the given points, which must be distinct mod q (and not be mutated
// afterwards: the set keeps the slice).
func (r *Ring) NewPointSet(points []uint64) *PointSet {
	ps := r.newTree(points)
	if len(points) > 0 {
		ps.invW = ps.Eval(r.Derivative(ps.node[1]))
		r.f.BatchInv(ps.invW)
	}
	return ps
}

// newTree builds the tree without the weights: all that evaluation needs.
func (r *Ring) newTree(points []uint64) *PointSet {
	n := len(points)
	size := nttSize(n)
	ps := &PointSet{r: r, points: points, size: size, node: make([][]uint64, 2*size)}
	one := []uint64{1}
	for i := 0; i < size; i++ {
		if i < n {
			ps.node[size+i] = []uint64{r.f.Neg(points[i]), 1}
		} else {
			ps.node[size+i] = one
		}
	}
	// Nodes within one level are independent; levels go bottom-up. Each
	// level is split across par workers once it has enough nodes to
	// amortize the fork (near the root the per-node products are large,
	// but Mul itself parallelizes through the NTT).
	for levelLo := size / 2; levelLo >= 1; levelLo /= 2 {
		width := levelLo // nodes levelLo .. 2*levelLo-1
		if width >= 4 && par.Parallelism() > 1 {
			par.ForChunks(width, func(clo, chi int) {
				for k := levelLo + clo; k < levelLo+chi; k++ {
					ps.node[k] = r.Mul(ps.node[2*k], ps.node[2*k+1])
				}
			})
		} else {
			for k := levelLo; k < 2*levelLo; k++ {
				ps.node[k] = r.Mul(ps.node[2*k], ps.node[2*k+1])
			}
		}
	}
	return ps
}

// Len returns the number of points.
func (ps *PointSet) Len() int { return len(ps.points) }

// Product returns Π (x - x_i) over the whole set — the G0 of the Gao
// decoder (paper §2.3). Not a copy; callers must not mutate.
func (ps *PointSet) Product() []uint64 { return ps.node[1] }

// Footprint returns the bytes of field elements and slice headers the set
// keeps alive, for callers that cache sets under a memory budget.
func (ps *PointSet) Footprint() int {
	words := len(ps.points) + len(ps.invW)
	for _, nd := range ps.node {
		words += len(nd)
	}
	return 8*words + 24*len(ps.node)
}

// Eval evaluates p at every point of the set, in O(M(d) log d) down the
// subproduct tree for large inputs and Horner per point for small ones.
func (ps *PointSet) Eval(p []uint64) []uint64 {
	if hornerWins(len(p), len(ps.points)) {
		return ps.r.evalEach(p, ps.points)
	}
	out := make([]uint64, len(ps.points))
	ps.evalDown(1, p, out, 0, ps.size)
	return out
}

// EvalMany evaluates p at every point: the one-shot form of
// PointSet.Eval, which builds no tree when Horner would be used anyway.
func (r *Ring) EvalMany(p []uint64, points []uint64) []uint64 {
	if hornerWins(len(p), len(points)) {
		return r.evalEach(p, points)
	}
	return r.newTree(points).Eval(p)
}

// hornerWins reports whether evaluating a polynomial of plen coefficients
// at n points is cheaper point by point than down a subproduct tree.
func hornerWins(plen, n int) bool { return n <= fastThreshold || plen <= fastThreshold }

func (r *Ring) evalEach(p, points []uint64) []uint64 {
	out := make([]uint64, len(points))
	for i, x := range points {
		out[i] = r.Eval(p, x)
	}
	return out
}

// evalDown reduces p modulo the subtree products, descending to leaves.
// span is the leaf count under node k; off the leaf offset.
func (ps *PointSet) evalDown(k int, p []uint64, out []uint64, off, span int) {
	n := len(ps.points)
	if off >= n {
		return
	}
	r := ps.r
	_, rem := r.DivMod(p, ps.node[k])
	// Below a size threshold, finish with Horner: cheaper than recursion.
	if span <= fastThreshold {
		for i := off; i < off+span && i < n; i++ {
			out[i] = r.Eval(rem, ps.points[i])
		}
		return
	}
	// The children read rem (DivMod copies; nothing is mutated) and write
	// disjoint halves of out, so they can run concurrently.
	if span >= parSpanMin && par.Parallelism() > 1 {
		par.Do(
			func() { ps.evalDown(2*k, rem, out, off, span/2) },
			func() { ps.evalDown(2*k+1, rem, out, off+span/2, span/2) },
		)
		return
	}
	ps.evalDown(2*k, rem, out, off, span/2)
	ps.evalDown(2*k+1, rem, out, off+span/2, span/2)
}

// Interpolate returns the unique polynomial of degree < Len() taking
// values[i] at the i-th point: Σ_i values[i]/m'(x_i) · m/(x - x_i),
// summed up the subproduct tree. The set must come from NewPointSet.
func (ps *PointSet) Interpolate(values []uint64) []uint64 {
	if len(ps.points) != len(values) {
		panic("poly: interpolation point/value length mismatch")
	}
	if len(values) == 0 {
		return nil
	}
	c := make([]uint64, len(values))
	ff.MulVecK(c, values, ps.invW, ps.r.f.Kernel())
	return Trim(ps.combineUp(1, c, 0, ps.size))
}

// Interpolate returns the unique polynomial of degree < len(points) with
// p(points[i]) = values[i]: the one-shot form of PointSet.Interpolate.
// Points must be distinct mod q.
func (r *Ring) Interpolate(points, values []uint64) []uint64 {
	return r.NewPointSet(points).Interpolate(values)
}

// combineUp computes Σ_i c_i Π_{j≠i} (x - x_j) over the subtree.
func (ps *PointSet) combineUp(k int, c []uint64, off, span int) []uint64 {
	n := len(ps.points)
	if off >= n {
		return nil
	}
	if span <= fastThreshold {
		return ps.combineLagrange(k, c, off, min(off+span, n))
	}
	r := ps.r
	var left, right []uint64
	if span >= parSpanMin && par.Parallelism() > 1 {
		// The children only read ps and c; their results are combined here.
		par.Do(
			func() { left = ps.combineUp(2*k, c, off, span/2) },
			func() { right = ps.combineUp(2*k+1, c, off+span/2, span/2) },
		)
	} else {
		left = ps.combineUp(2*k, c, off, span/2)
		right = ps.combineUp(2*k+1, c, off+span/2, span/2)
	}
	// left * rightProduct + right * leftProduct
	lp := r.Mul(left, ps.node[2*k+1])
	rp := r.Mul(right, ps.node[2*k])
	return r.Add(lp, rp)
}

// combineLagrange is the quadratic base of combineUp for the points
// [lo, hi) under node k: each m_k/(x - x_i) comes from one synthetic
// division of the (monic) node product and is accumulated scaled by c_i.
func (ps *PointSet) combineLagrange(k int, c []uint64, lo, hi int) []uint64 {
	f := ps.r.f
	kern := f.Kernel()
	m := ps.node[k] // degree hi-lo
	out := make([]uint64, hi-lo)
	for i := lo; i < hi; i++ {
		if c[i] == 0 {
			continue
		}
		cs, xs := kern.Shift(c[i]), kern.Shift(f.ReduceU(ps.points[i]))
		b := uint64(1) // quotient coefficient, from the top down
		for j := len(out) - 1; ; j-- {
			out[j] = f.Add(out[j], ff.MulKS(b, cs, kern))
			if j == 0 {
				break
			}
			b = f.Add(m[j], ff.MulKS(b, xs, kern))
		}
	}
	return out
}
