package poly

// Number-theoretic transform over NTT-friendly prime fields, used to give
// the O(d log d) multiplication of paper §2.2 for the large encodes and
// decodes (proof codewords routinely have thousands of symbols).
//
// Transforms run against cached plans: for every (modulus, size) pair the
// forward and inverse stage twiddle tables, the bit-reversal permutation,
// and the 1/n scaling constant — each multiplier beside its ff.ShoupOf
// companion — are computed once and shared process-wide
// (rings are rebuilt per prime per run, so the cache cannot live on the
// Ring). Plans also pool transform scratch buffers, so a multiplication
// allocates only its result. The cache is a sync.Map keyed by (q, n);
// concurrent lookups are lock-free and a racing build publishes exactly
// one winner via LoadOrStore. Growth is bounded by the distinct moduli
// and transform sizes a process touches.

import (
	"sync"

	"camelot/internal/ff"
	"camelot/internal/par"
)

// nttSize returns the smallest power of two >= n.
func nttSize(n int) int {
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// planKey identifies a cached transform plan.
type planKey struct {
	q uint64
	n int
}

var planCache sync.Map // planKey -> *nttPlan

// twiddle is a multiplier w < q fixed for a whole loop, beside its
// companion s = ff.ShoupOf(w, q): the one form in which a plan keeps its
// constants, so every product by one is an ff.MulShoup.
type twiddle struct{ w, s uint64 }

// nttPlan holds everything a size-n transform over one modulus needs
// beyond the data itself. Plans are immutable after construction apart
// from the scratch pool.
type nttPlan struct {
	n int
	// rev is the bit-reversal permutation; entry i is the index i's
	// bit-reversed image.
	rev []int32
	// fwd and inv are the stage-major twiddle tables for the forward and
	// inverse transforms: the stage with butterfly span `length` occupies
	// half = length/2 consecutive entries holding wl^0..wl^(half-1),
	// stages in ascending length order, n-1 entries total.
	fwd []twiddle
	inv []twiddle
	// invN is 1/n mod q, the inverse-transform scaling constant.
	invN twiddle
	// bufs pools length-n scratch vectors for mulNTT.
	bufs sync.Pool
}

// plan returns the cached transform plan for size n over the ring's
// modulus, building and publishing it on first use.
func (r *Ring) plan(n int) *nttPlan {
	key := planKey{q: r.f.Q, n: n}
	if p, ok := planCache.Load(key); ok {
		return p.(*nttPlan)
	}
	p := r.buildPlan(n)
	actual, _ := planCache.LoadOrStore(key, p)
	return actual.(*nttPlan)
}

func (r *Ring) buildPlan(n int) *nttPlan {
	f := r.f
	w := r.rootOfOrder(n)
	invN := f.Inv(f.ReduceU(uint64(n)))
	p := &nttPlan{
		n:    n,
		rev:  make([]int32, n),
		fwd:  stageTwiddles(f, w, n),
		inv:  stageTwiddles(f, f.Inv(w), n),
		invN: twiddle{invN, ff.ShoupOf(invN, f.Q)},
	}
	for i := 1; i < n; i++ {
		p.rev[i] = p.rev[i>>1]>>1 | int32(i&1)*int32(n>>1)
	}
	p.bufs.New = func() any {
		b := make([]uint64, n)
		return &b
	}
	return p
}

// stageTwiddles fills the stage-major twiddle table for a transform with
// primitive n-th root w (see nttPlan.fwd for the layout).
func stageTwiddles(f ff.Field, w uint64, n int) []twiddle {
	tw := make([]twiddle, n-1)
	off := 0
	for length := 2; length <= n; length <<= 1 {
		// wl = w^(n/length): primitive length-th root.
		wl := w
		for m := n; m > length; m >>= 1 {
			wl = f.Mul(wl, wl)
		}
		half := length >> 1
		wj := uint64(1)
		for j := 0; j < half; j++ {
			tw[off+j] = twiddle{wj, ff.ShoupOf(wj, f.Q)}
			wj = f.Mul(wj, wl)
		}
		off += half
	}
	return tw
}

// mulNTT multiplies a and b via forward transforms of size n (a power of
// two that both the product and the field's two-adicity accommodate).
func (r *Ring) mulNTT(a, b []uint64, n int) []uint64 {
	p := r.plan(n)
	f := r.f
	// fa is returned (truncated) to the caller, so it cannot come from
	// the pool; fb is pure scratch.
	fa := make([]uint64, n)
	copy(fa, a)
	fbp := p.bufs.Get().(*[]uint64)
	fb := (*fbp)[:n]
	copy(fb, b)
	clear(fb[len(b):])
	transformLazy(f, fa, p, p.fwd)
	transformLazy(f, fb, p, p.fwd)
	// Pointwise product. MulK shifts its second operand, which must
	// therefore be canonical: fb is reduced out of the lazy range, while
	// fa rides the lazy first-operand slot (< 4q) untouched. The products
	// come out canonical, so the inverse transform starts clean.
	ff.ReduceVec4Q(fb, f.Q)
	ff.MulVecK(fa, fa, fb, f.Kernel())
	p.bufs.Put(fbp)
	r.inverse(fa, p)
	return fa[:len(a)+len(b)-1]
}

// inverse is the inverse transform of a (entries below 4q) under plan p,
// scaled by 1/n: the lazy residues go to ff.MulShoup as they are, and the
// sweep emits canonical values.
func (r *Ring) inverse(a []uint64, p *nttPlan) {
	transformLazy(r.f, a, p, p.inv)
	ff.MulVecShoup(a, a, p.invN.w, p.invN.s, r.f.Q)
}

// spectrum returns the forward transform of a (len(a) ≤ p.n) under plan p
// in canonical residues: the form a cached spectrum is kept in, ready for
// the second-operand slot of ff.MulVecK.
func (r *Ring) spectrum(a []uint64, p *nttPlan) []uint64 {
	s := make([]uint64, p.n)
	copy(s, a)
	transformLazy(r.f, s, p, p.fwd)
	ff.ReduceVec4Q(s, r.f.Q)
	return s
}

// twist returns ψ^i and ψ^-i for i < n, ψ the primitive 2n-th root of
// unity of the size-2n plan: they are that plan's last butterfly stage.
// Multiplying coefficient i by ψ^i before a size-n transform evaluates at
// the odd 2n-th roots ψ·ω^j, the roots of x^n = -1.
func (r *Ring) twist(n int) (tw, untw []twiddle) {
	p := r.plan(2 * n)
	return p.fwd[n-1:], p.inv[n-1:]
}

// twistedSpectrum sets dst to the values of a (len(a) ≤ len(dst)) at the
// odd 2·len(dst)-th roots of unity, in canonical residues.
func (r *Ring) twistedSpectrum(dst, a []uint64) {
	q := r.f.Q
	tw, _ := r.twist(len(dst))
	for i, ai := range a {
		dst[i] = ff.MulShoup(ai, tw[i].w, tw[i].s, q)
	}
	clear(dst[len(a):])
	p := r.plan(len(dst))
	transformLazy(r.f, dst, p, p.fwd)
	ff.ReduceVec4Q(dst, r.f.Q)
}

// mulAddVecK sets dst[i] = dst[i]·b[i] + c[i]·d[i]: two spectra taken
// against two cached ones and summed before the inverse transform. dst
// and c may be lazy (< 4q), b and d must be canonical; the sums stay
// below 2q, inside the range transformLazy accepts.
func mulAddVecK(dst, b, c, d []uint64, k ff.Kernel) {
	b, c, d = b[:len(dst)], c[:len(dst)], d[:len(dst)]
	for i := range dst {
		dst[i] = ff.MulK(dst[i], b[i], k) + ff.MulK(c[i], d[i], k)
	}
}

// rootOfOrder returns a primitive n-th root of unity (n a power of two
// within the field's two-adicity).
func (r *Ring) rootOfOrder(n int) uint64 {
	w := r.root
	size := 1 << uint(r.twoAdicity)
	for size > n {
		w = r.f.Mul(w, w)
		size >>= 1
	}
	return w
}

// nttParallelMin is the transform size from which stage splitting across
// par workers pays for itself; below it the fork/join overhead dominates
// a stage's ~n/2 butterflies.
const nttParallelMin = 4096

// transformLazy performs an in-place iterative radix-2 Cooley–Tukey pass
// of a (length p.n) with the given stage twiddle table (p.fwd or p.inv):
// Harvey's lazy butterflies with Shoup products ("Faster arithmetic for
// number-theoretic transforms"), which keep residues in [0, 4q) instead
// of canonicalizing after every operation, 4-wide unrolled inner loops,
// and stages split across par workers for large sizes. Input below 4q
// yields output in the lazy range [0, 4q); callers reduce
// (ff.ReduceVec4Q) or exploit the lazy first-operand slot of ff.MulK
// (see mulNTT). TestTransformLazyMatchesReference holds it to a
// canonical butterfly with Field.Mul.
//
// Per butterfly, with u = lo reduced into [0, 2q) and t = hi·w in
// [0, 2q) (ff.MulShoup takes the lazy hi as it is):
//
//	lo' = u + t        < 4q
//	hi' = u + 2q - t   in (0, 4q)
//
// so the [0, 4q) invariant is maintained stage over stage.
//
// Work splitting: a stage is a barrier (stage s+1 reads what stage s
// wrote) but its butterflies are independent. Early stages have many
// blocks and short twiddle runs — they split by block; late stages have
// few long blocks — they split the twiddle range inside each block.
func transformLazy(f ff.Field, a []uint64, p *nttPlan, tw []twiddle) {
	n := p.n
	q := f.Q
	for i, ri := range p.rev {
		if int32(i) < ri {
			a[i], a[ri] = a[ri], a[i]
		}
	}
	workers := par.Parallelism()
	parallel := n >= nttParallelMin && workers > 1
	off := 0
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		ws := tw[off : off+half]
		blocks := n / length
		switch {
		case !parallel:
			for start := 0; start < n; start += length {
				lazyButterflies(a[start:start+half:start+half], a[start+half:start+length:start+length], ws, q)
			}
		case blocks >= workers:
			par.ForChunks(blocks, func(blo, bhi int) {
				for b := blo; b < bhi; b++ {
					start := b * length
					lazyButterflies(a[start:start+half:start+half], a[start+half:start+length:start+length], ws, q)
				}
			})
		default:
			for start := 0; start < n; start += length {
				lo := a[start : start+half : start+half]
				hi := a[start+half : start+length : start+length]
				par.ForChunks(half, func(jlo, jhi int) {
					lazyButterflies(lo[jlo:jhi], hi[jlo:jhi], ws[jlo:jhi], q)
				})
			}
		}
		off += half
	}
}

// lazyButterflies applies one stage's butterflies to paired slices
// (lo[j], hi[j]) with twiddles ws[j], maintaining the [0, 4q) lazy
// invariant. The 4-wide unroll overlaps the independent product chains;
// see ff/vec.go for the idiom.
func lazyButterflies(lo, hi []uint64, ws []twiddle, q uint64) {
	n := len(ws)
	twoQ := 2 * q
	j := 0
	for ; j+4 <= n; j += 4 {
		u0, u1, u2, u3 := lo[j], lo[j+1], lo[j+2], lo[j+3]
		if u0 >= twoQ {
			u0 -= twoQ
		}
		if u1 >= twoQ {
			u1 -= twoQ
		}
		if u2 >= twoQ {
			u2 -= twoQ
		}
		if u3 >= twoQ {
			u3 -= twoQ
		}
		w0, w1, w2, w3 := ws[j], ws[j+1], ws[j+2], ws[j+3]
		t0 := ff.MulShoup(hi[j], w0.w, w0.s, q)
		t1 := ff.MulShoup(hi[j+1], w1.w, w1.s, q)
		t2 := ff.MulShoup(hi[j+2], w2.w, w2.s, q)
		t3 := ff.MulShoup(hi[j+3], w3.w, w3.s, q)
		lo[j], lo[j+1], lo[j+2], lo[j+3] = u0+t0, u1+t1, u2+t2, u3+t3
		hi[j], hi[j+1], hi[j+2], hi[j+3] = u0+twoQ-t0, u1+twoQ-t1, u2+twoQ-t2, u3+twoQ-t3
	}
	for ; j < n; j++ {
		u := lo[j]
		if u >= twoQ {
			u -= twoQ
		}
		t := ff.MulShoup(hi[j], ws[j].w, ws[j].s, q)
		lo[j] = u + t
		hi[j] = u + twoQ - t
	}
}
