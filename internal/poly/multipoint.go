package poly

// Subproduct-tree multipoint evaluation and interpolation (paper §2.2):
// evaluating or interpolating a degree-d polynomial at d+1 points in
// O(M(d) log d) field operations. These are the workhorses behind
// Reed–Solomon encoding (evaluation) and the Gao decoder's first step
// (interpolation of the received word).
//
// Everything here that depends on the points alone lives in a PointSet:
// the tree of subproducts; beside each node whose parent combines by
// transform, that node's spectrum at the parent's size, so interpolation
// transforms only what depends on the values; the interpolation weights
// 1/m'(x_i); and the spectrum of the full product m on the odd 2N-th
// roots of unity, against which Quotient divides. A caller that meets the
// same points again and again (a Reed–Solomon code decodes every word at
// the same points) builds the set once; Ring.EvalMany and Ring.Interpolate
// build one, use it and drop it. The quadratic bases under the tree —
// Horner at the leaves, synthetic division in combineLagrange — are serial
// multiply chains, latency-bound at 61 bits, and run four independent
// points at a time (the ff/vec.go idiom), each point's multiplier an
// ff.MulShoup against the companion the set keeps for it.

import (
	"slices"

	"camelot/internal/ff"
	"camelot/internal/par"
)

// fastThreshold is the point count below which naive O(d^2) evaluation /
// Lagrange interpolation is used directly (the tree overhead dominates
// below it).
const fastThreshold = 64

// spectralMin is the span from which a tree node combines its children by
// transform: below Ring.Mul's nttThreshold, because with the children's
// spectra cached two forward transforms and one inverse at the size of
// the result stand for two products, and halve the quadratic base below.
const spectralMin = 64

// parSpanMin is the subtree span (leaf count) from which the recursive
// tree walks fork their two children onto par workers; below it the
// token bookkeeping costs more than the subtree. The walks degrade to
// plain serial recursion when every worker is busy (par.Do is
// non-blocking), so nesting inside an already-parallel decode is safe.
const parSpanMin = 4 * fastThreshold

// PointSet is a fixed list of distinct evaluation points together with
// what multipoint evaluation and interpolation need of them: the
// subproduct tree with its cached spectra, and — on a set built by
// NewPointSet — the inverse weights 1/m'(x_i) of m = Π (x - x_i) and m's
// own spectrum. It is immutable after construction and safe for
// concurrent use. It holds O(n log n) field elements for n points.
type PointSet struct {
	r      *Ring
	points []uint64
	shoup  []uint64 // ff.ShoupOf of each point reduced mod q
	size   int      // leaf slots of the tree: n rounded up to a power of two
	// node is the tree in heap layout, 1-based: node[k] = Π (x - x_i) over
	// the leaves under k, leaf size+i is (x - x_i), and a leaf slot past
	// the last point is the constant 1. node[1] is the full product.
	node [][]uint64
	// spec[k] is node[k]'s forward transform at its parent's size, for every
	// k whose parent is spectral with points on both sides; nil elsewhere.
	spec [][]uint64
	invW []uint64 // 1/m'(x_i); nil on a set built for evaluation alone
	// mHat is m at the odd 2·size-th roots of unity (twistedSpectrum); nil
	// without weights or where the field has no such roots.
	mHat []uint64
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
	if r.canNTT(2 * ps.size) {
		m := ps.node[1]
		if len(m) > ps.size {
			// x^size = -1 at every odd root: a full tree's monic leading
			// term folds onto the constant one.
			m = slices.Clone(m[:ps.size])
			m[0] = r.f.Sub(m[0], 1)
		}
		ps.mHat = make([]uint64, ps.size)
		r.twistedSpectrum(ps.mHat, m)
	}
	return ps
}

// newTree builds the tree without the weights: all that evaluation needs.
func (r *Ring) newTree(points []uint64) *PointSet {
	n := len(points)
	size := nttSize(n)
	// The smallest nodes with a spectrum span spectralMin/2 leaves.
	ps := &PointSet{r: r, points: points, shoup: make([]uint64, n), size: size, node: make([][]uint64, 2*size), spec: make([][]uint64, 4*size/spectralMin)}
	for i, x := range points {
		ps.shoup[i] = ff.ShoupOf(r.f.ReduceU(x), r.f.Q)
	}
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
		span := size / levelLo
		if width >= 4 && par.Parallelism() > 1 {
			par.ForChunks(width, func(clo, chi int) {
				for k := levelLo + clo; k < levelLo+chi; k++ {
					ps.mulNode(k, span)
				}
			})
		} else {
			for k := levelLo; k < 2*levelLo; k++ {
				ps.mulNode(k, span)
			}
		}
	}
	return ps
}

// spectral reports whether a node of the given span combines its children
// by transforms of size span.
func (ps *PointSet) spectral(span int) bool { return span >= spectralMin && ps.r.canNTT(span) }

// mulNode sets node[k] to the product of its children, keeping their
// spectra when the node is spectral: the product is then one pointwise
// multiply and one inverse transform away.
func (ps *PointSet) mulNode(k, span int) {
	r := ps.r
	a, b := ps.node[2*k], ps.node[2*k+1]
	switch {
	case len(b) == 1: // nothing but padding on the right
		ps.node[k] = a
	case !ps.spectral(span):
		ps.node[k] = r.Mul(a, b)
	default:
		p, f := r.plan(span), r.f
		ps.spec[2*k], ps.spec[2*k+1] = r.spectrum(a, p), r.spectrum(b, p)
		out := make([]uint64, span+1)
		ff.MulVecK(out[:span], ps.spec[2*k], ps.spec[2*k+1], f.Kernel())
		r.inverse(out[:span], p)
		if len(a)+len(b)-2 == span {
			// A full node has degree span: its monic leading term wrapped
			// around onto the constant one.
			out[0], out[span] = f.Sub(out[0], 1), 1
		}
		ps.node[k] = out[:len(a)+len(b)-1]
	}
}

// Len returns the number of points.
func (ps *PointSet) Len() int { return len(ps.points) }

// Product returns Π (x - x_i) over the whole set — the G0 of the Gao
// decoder (paper §2.3). Not a copy; callers must not mutate.
func (ps *PointSet) Product() []uint64 { return ps.node[1] }

// Footprint returns the bytes of field elements and slice headers the set
// keeps alive, for callers that cache sets under a memory budget.
func (ps *PointSet) Footprint() int {
	words := len(ps.points) + len(ps.shoup) + len(ps.invW) + len(ps.mHat)
	for _, nd := range ps.node {
		words += len(nd)
	}
	for _, sp := range ps.spec {
		words += len(sp)
	}
	return 8*words + 24*(len(ps.node)+len(ps.spec))
}

// InvWeights returns 1/m'(x_i) for every point, m the set's product. Not
// a copy; callers must not mutate.
func (ps *PointSet) InvWeights() []uint64 { return ps.invW }

// Eval evaluates p at every point of the set, in O(M(d) log d) down the
// subproduct tree for large inputs and Horner per point for small ones.
func (ps *PointSet) Eval(p []uint64) []uint64 {
	if hornerWins(len(p), len(ps.points)) {
		out := make([]uint64, len(ps.points))
		ps.r.hornerEach(out, p, ps.points, ps.shoup)
		return out
	}
	out := make([]uint64, len(ps.points))
	ps.evalDown(1, p, out, 0, ps.size)
	return out
}

// EvalMany evaluates p at every point: the one-shot form of
// PointSet.Eval, which builds no tree when Horner would be used anyway.
func (r *Ring) EvalMany(p []uint64, points []uint64) []uint64 {
	if hornerWins(len(p), len(points)) {
		return r.EvalEach(p, points)
	}
	return r.newTree(points).Eval(p)
}

// hornerWins reports whether evaluating a polynomial of plen coefficients
// at n points is cheaper point by point than down a subproduct tree.
func hornerWins(plen, n int) bool { return n <= fastThreshold || plen <= fastThreshold }

// EvalEach evaluates p at every point by Horner's rule: the form for a
// few points or a short polynomial, where no tree pays for itself.
func (r *Ring) EvalEach(p, points []uint64) []uint64 {
	out := make([]uint64, len(points))
	r.hornerEach(out, p, points, nil)
	return out
}

// hornerEach sets out[i] = p(points[i]), four independent Horner chains
// at a time (a lane past the last point evaluates at 0). shoup holds the
// points' ff.ShoupOf companions, or is nil, and then each is computed
// here: one division per point against the len(p) products it serves.
// An accumulator is a Shoup product plus a canonical coefficient, below
// 3q, and is reduced once at the end.
func (r *Ring) hornerEach(out, p, points, shoup []uint64) {
	f, q := r.f, r.f.Q
	for i := 0; i < len(points); i += 4 {
		var xs, ws [4]uint64
		n := copy(xs[:], points[i:])
		for l := range n {
			xs[l] = f.ReduceU(xs[l])
			if shoup != nil {
				ws[l] = shoup[i+l]
			} else {
				ws[l] = ff.ShoupOf(xs[l], q)
			}
		}
		var a0, a1, a2, a3 uint64
		for j := len(p) - 1; j >= 0; j-- {
			c := p[j]
			a0, a1 = ff.MulShoup(a0, xs[0], ws[0], q)+c, ff.MulShoup(a1, xs[1], ws[1], q)+c
			a2, a3 = ff.MulShoup(a2, xs[2], ws[2], q)+c, ff.MulShoup(a3, xs[3], ws[3], q)+c
		}
		as := [4]uint64{a0, a1, a2, a3}
		copy(out[i:], as[:n])
	}
	ff.ReduceVec4Q(out, q)
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
		hi := min(off+span, n)
		r.hornerEach(out[off:hi], rem, ps.points[off:hi], ps.shoup[off:hi])
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
	if span <= fastThreshold && !ps.spectral(span) {
		return ps.combineLagrange(k, c, off, min(off+span, n))
	}
	if off+span/2 >= n {
		// Nothing but padding on the right: its product is 1, its sum empty.
		return ps.combineUp(2*k, c, off, span/2)
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
	// left * rightProduct + right * leftProduct, of degree < the number of
	// points below k: at a spectral node both products are taken against
	// the cached spectra and summed before the one inverse transform.
	if !ps.spectral(span) {
		return r.Add(r.Mul(left, ps.node[2*k+1]), r.Mul(right, ps.node[2*k]))
	}
	p, f := r.plan(span), r.f
	out := make([]uint64, span)
	copy(out, left)
	scratch := p.bufs.Get().(*[]uint64)
	rt := (*scratch)[:span]
	clear(rt[copy(rt, right):])
	transformLazy(f, out, p, p.fwd)
	transformLazy(f, rt, p, p.fwd)
	mulAddVecK(out, ps.spec[2*k+1], rt, ps.spec[2*k], f.Kernel())
	p.bufs.Put(scratch)
	r.inverse(out, p)
	return out[:min(off+span, n)-off]
}

// combineLagrange is the quadratic base of combineUp for the points
// [lo, hi) under node k: each m_k/(x - x_i) comes from one synthetic
// division of the (monic) node product and is accumulated scaled by c_i,
// four points — four independent division chains — at a time. Both
// multipliers of a chain are Shoup products: x_i against the set's
// companion, c_i against one computed here for the row it scales.
func (ps *PointSet) combineLagrange(k int, c []uint64, lo, hi int) []uint64 {
	f := ps.r.f
	q, twoQ := f.Q, 2*f.Q
	m := ps.node[k] // degree hi-lo
	out := make([]uint64, hi-lo)
	for i := lo; i < hi; i += 4 {
		var cs, css, xs, xss [4]uint64 // a lane past hi carries c = 0 and adds nothing
		for l := 0; l < 4 && i+l < hi; l++ {
			cs[l], css[l] = c[i+l], ff.ShoupOf(c[i+l], q)
			xs[l], xss[l] = f.ReduceU(ps.points[i+l]), ps.shoup[i+l]
		}
		// Quotient coefficients, from the top down: a Shoup product plus
		// a coefficient of m, below 3q. Sums are folded below 2q as they
		// go (four products below 2q each could wrap a word), and out
		// stays below 2q until the end.
		b0, b1, b2, b3 := uint64(1), uint64(1), uint64(1), uint64(1)
		for j := len(out) - 1; ; j-- {
			s01 := ff.MulShoup(b0, cs[0], css[0], q) + ff.MulShoup(b1, cs[1], css[1], q)
			s23 := ff.MulShoup(b2, cs[2], css[2], q) + ff.MulShoup(b3, cs[3], css[3], q)
			s := fold2Q(fold2Q(s01, twoQ)+fold2Q(s23, twoQ), twoQ)
			out[j] = fold2Q(out[j]+s, twoQ)
			if j == 0 {
				break
			}
			mj := m[j]
			b0, b1 = mj+ff.MulShoup(b0, xs[0], xss[0], q), mj+ff.MulShoup(b1, xs[1], xss[1], q)
			b2, b3 = mj+ff.MulShoup(b2, xs[2], xss[2], q), mj+ff.MulShoup(b3, xs[3], xss[3], q)
		}
	}
	ff.ReduceVec4Q(out, q)
	return out
}

// fold2Q maps a sum below 4q into [0, 2q).
func fold2Q(v, twoQ uint64) uint64 {
	if v >= twoQ {
		v -= twoQ
	}
	return v
}

// Quotient returns p = (u·m + v·b)/v, m the set's product, when the
// division is exact and deg p ≤ maxDeg, and ok = false otherwise: the last
// step of Gao's decoder, whose Euclidean stop is g = u·m + v·b. The caller
// guarantees v ≠ 0 and deg g < Len() (PartialXGCD's cofactors do).
//
// Where the field has odd 2N-th roots of unity ζ, N the tree size, neither
// g nor a division is formed: p - b has degree < N and takes the values
// u(ζ)·m(ζ)/v(ζ), one inverse transform of a pointwise quotient against
// the cached m(ζ); and any p̃ of degree ≤ maxDeg with those values has
// deg p̃·v < N, so p̃·v = g: the degree test is the exactness test. (Odd
// roots, because x = 1 is an N-th root and a code point; where some v(ζ)
// is zero all the same, the products and the division are carried out.)
func (ps *PointSet) Quotient(u, v, b []uint64, maxDeg int) (p []uint64, ok bool) {
	u, v, b = Trim(u), Trim(v), Trim(b)
	if len(u) == 0 { // no Euclidean step: g = v·b
		return b, len(b) <= maxDeg+1
	}
	r := ps.r
	if ps.mHat != nil && maxDeg+len(v) <= ps.size && len(b) <= ps.size {
		if p = ps.quotientSpectral(u, v); p != nil {
			addInto(r.f, p, b, 0)
			p = Trim(p)
			return p, len(p) <= maxDeg+1
		}
	}
	p, rem := r.DivMod(r.Add(r.Mul(u, ps.node[1]), r.Mul(v, b)), v)
	return p, len(rem) == 0 && len(p) <= maxDeg+1
}

// quotientSpectral returns the polynomial of degree < size taking the
// values u·m/v at the odd 2·size-th roots, or nil if v vanishes at one.
func (ps *PointSet) quotientSpectral(u, v []uint64) []uint64 {
	r, f := ps.r, ps.r.f
	kern := f.Kernel()
	q := f.Q
	p := r.plan(ps.size)
	vbuf, pbuf := p.bufs.Get().(*[]uint64), p.bufs.Get().(*[]uint64)
	defer p.bufs.Put(vbuf)
	defer p.bufs.Put(pbuf)
	vh := *vbuf
	r.twistedSpectrum(vh, v)
	if slices.Contains(vh, 0) {
		return nil
	}
	f.BatchInvScratch(vh, *pbuf)
	out := make([]uint64, ps.size)
	r.twistedSpectrum(out, u)
	ff.MulVecK(out, out, ps.mHat, kern)
	ff.MulVecK(out, out, vh, kern)
	r.inverse(out, p)
	_, untw := r.twist(ps.size)
	for i, w := range untw {
		out[i] = ff.MulShoup(out[i], w.w, w.s, q)
	}
	ff.ReduceVec4Q(out, q)
	return out
}
