package ff

import "math/bits"

// Sweeps that multiply whole vectors, in three forms. MulK takes two
// variable operands: the second must be canonical (< q), while the first
// may be a lazy residue anywhere below 4q — the division precondition is
// a·b < q·2^64, and 4q·q ≤ q·2^64 for every q ≤ MaxPrime = 2^62-1 — so
// callers feed unreduced sums (< 2q) straight into it (MulVecK). A
// multiplier fixed for many products takes its ShoupOf companion once
// and goes through MulShoup (MulVecShoup, MulAddVecShoup; internal/poly's
// NTT and tree bases): any 64-bit first operand, a result in [0, 2q), no
// reduction. A chain of fixed length over an odd q goes through MulMont
// (MulSumVecMont, the permanent's Gray-code sweep): each product carries
// a factor 2^-64, and since every result passes through the same number
// of products, the caller folds them into one constant instead of
// converting operands. Every function here returns canonical values, so
// results are bit-identical to the scalar Field-op loops that vec_test.go
// pins each one against across the diffModuli sweep.
//
// MulVecShoup, MulVecK and MulSumVecMont, the sweeps of the evaluation
// hot loops, are unrolled 4-wide by hand: MulK, MulShoup and MulMont
// inline (guarded by TestMulKStaysInlinable), and unrolling lets the four
// independent reduction chains overlap in the out-of-order window instead
// of serializing on the loop counter.

// MulVecShoup sets dst[i] = a[i]·w mod q, canonical, for any entries of
// a, where ws = ShoupOf(w, q). dst and a may alias; len(dst) must be >=
// len(a).
func MulVecShoup(dst, a []uint64, w, ws, q uint64) {
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		d0, d1 := MulShoup(a[i], w, ws, q), MulShoup(a[i+1], w, ws, q)
		d2, d3 := MulShoup(a[i+2], w, ws, q), MulShoup(a[i+3], w, ws, q)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = reduce2Q(d0, q), reduce2Q(d1, q), reduce2Q(d2, q), reduce2Q(d3, q)
	}
	for ; i < n; i++ {
		dst[i] = reduce2Q(MulShoup(a[i], w, ws, q), q)
	}
}

// MulAddVecShoup sets dst[i] = dst[i] + a[i]·w mod q for canonical dst
// and any entries of a, where ws = ShoupOf(w, q); a must be at least as
// long as dst and may not overlap it.
func MulAddVecShoup(dst, a []uint64, w, ws, q uint64) {
	a = a[:len(dst)]
	for i, x := range a {
		dst[i] = reduce2Q(reduce2Q(dst[i]+MulShoup(x, w, ws, q), q), q)
	}
}

// reduce2Q canonicalizes a residue below 2q.
func reduce2Q(v, q uint64) uint64 {
	if v >= q {
		v -= q
	}
	return v
}

// MulVecK sets dst[i] = a[i]·b[i] mod q pointwise. Entries of a may be
// lazy (< 4q); entries of b must be canonical. dst may alias a or b.
func MulVecK(dst, a, b []uint64, k Kernel) {
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := MulK(a[i], b[i], k)
		d1 := MulK(a[i+1], b[i+1], k)
		d2 := MulK(a[i+2], b[i+2], k)
		d3 := MulK(a[i+3], b[i+3], k)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < n; i++ {
		dst[i] = MulK(a[i], b[i], k)
	}
}

// MulSumVecMont sets dst[i] = (a[i]+t)·src[i]·2^-64 mod q, for odd q and
// qi = MontOf(q) — one row of the permanent's point-inner Ryser sweep: a
// holds a matrix row's prefix sums at a strip of points, t the row's
// suffix sum at the current Gray step, src the running products. The sums
// a[i]+t go to MulMont unreduced (< 2q, inside its a·b < q·2^64),
// skipping the canonicalizing subtraction of Field.Add. Entries of a and
// src and t must be canonical; dst may alias src. The products of
// different points are independent, so the reduction chains overlap where
// a per-point product over the rows would serialize.
func MulSumVecMont(dst, src, a []uint64, t, q, qi uint64) {
	n := len(dst)
	src, a = src[:n], a[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := MulMont(a[i]+t, src[i], q, qi)
		d1 := MulMont(a[i+1]+t, src[i+1], q, qi)
		d2 := MulMont(a[i+2]+t, src[i+2], q, qi)
		d3 := MulMont(a[i+3]+t, src[i+3], q, qi)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < n; i++ {
		dst[i] = MulMont(a[i]+t, src[i], q, qi)
	}
}

// MulAddPoly adds c·b to p in place, cut to len(p): p[j] += Σ_i c[i]·b[j−i]
// mod q over canonical entries, b not overlapping p — a step of
// internal/poly's Euclidean loop, which passes its quotient negated. Like
// MatMulDot it reduces no product: one pass per pair of coefficients of c
// sums each p[j] and the pair's two products, pre-shifted as MulK's are,
// below q·2^64 and reduces once. A degree-1 quotient, all but every step
// over a word-sized prime, is one pass and one reduction per coefficient.
func (f Field) MulAddPoly(p, c, b []uint64) {
	k := f.Kernel()
	for i := 0; i < len(c) && i < len(p); i += 2 {
		c0, c1 := c[i]<<k.s, uint64(0)
		if i+1 < len(c) {
			c1 = c[i+1] << k.s
		}
		w := p[i:min(len(p), i+len(b)+1)]
		var prev uint64 // b[j-1]
		for j := range w {
			var bj uint64
			if j < len(b) {
				bj = b[j]
			}
			hi, lo := bits.Mul64(c0, bj)
			var carry uint64
			lo, carry = bits.Add64(lo, w[j]<<k.s, 0)
			hi += carry
			ph, pl := bits.Mul64(c1, prev)
			lo, carry = bits.Add64(lo, pl, 0)
			w[j] = reduceShifted(hi+ph+carry, lo, k)
			prev = bj
		}
	}
}

// MatMulDot returns ⟨X·Y, W⟩ = Σ_{d,f} (Σ_e X[d][e]·Y[e][f])·W[d][f] mod q
// for n×n matrices of canonical entries, X and W row-major and Y given
// transposed (yt[f*n+e] = Y[e][f]) so every inner sum runs over two
// contiguous rows — the block product of the triangle proof polynomial.
// Unlike the sweeps above it never reduces a term: products (< 2^124 for
// q < 2^62) are summed into three-word accumulators whose carry word
// cannot overflow, and two Möller–Granlund reductions close each (d, f)
// sum and two the total. A 32×32 block at a 61-bit prime takes ≈37 µs
// on the 2-vCPU reference host.
func (f Field) MatMulDot(x, yt, w []uint64, n int) uint64 {
	k := f.Kernel()
	var o acc3
	for d := 0; d < n; d++ {
		xr, wr := x[d*n:(d+1)*n], w[d*n:(d+1)*n]
		// Columns fa and fb of Y share each pass over X's row; an odd
		// last column pairs with itself and keeps one of the two sums.
		for fa := 0; fa < n; fa += 2 {
			fb := min(fa+1, n-1)
			ya, yb := yt[fa*n:(fa+1)*n], yt[fb*n:(fb+1)*n]
			var a, b acc3
			for e := 0; e < n; e += 16 {
				ah, al, bh, bl := dotPair(xr[e:min(n, e+16)], ya[e:], yb[e:])
				a.add(ah, al)
				b.add(bh, bl)
			}
			o.add(bits.Mul64(a.reduce(k), wr[fa]))
			if fb > fa {
				o.add(bits.Mul64(b.reduce(k), wr[fb]))
			}
		}
	}
	return o.reduce(k)
}

// Trilinear returns Σ_{a,b,c} x[a]·y[b]·z[c]·t[(a·g+b)·g+c] mod q for a
// g×g×g tensor t of integers below 2^16, g < 256, and canonical x, y, z
// of length g — the group-tensor form of the triangle proof polynomial.
// yz is scratch of at least 2g² words. The g² products y[b]·z[c] are
// reduced first and split into 32-bit halves; then, like MatMulDot, it
// reduces no term: for each a, t's slab times either half sums below
// 2^64 in one word (smallDot), the two make one two-word sum reduced
// once, and x[a]'s products join a three-word sum reduced at the end —
// g² reductions for y·z, g+2 more, and 2g³+g multiplies, the 2g³ of them
// word by word with no carry. A g = 16 tensor at a 61-bit prime takes a
// tenth of a 32×32 MatMulDot's time on the 2-vCPU reference host.
func (f Field) Trilinear(t []uint16, x, y, z, yz []uint64) uint64 {
	g := len(z)
	if len(x) != g || len(y) != g || len(t) != g*g*g || len(yz) < 2*g*g {
		panic("ff: Trilinear tensor, vectors and scratch differ in size")
	}
	k := f.Kernel()
	yh, yl := yz[:g*g], yz[g*g:2*g*g]
	for b, yb := range y {
		MulVecShoup(yl[b*g:(b+1)*g], z, yb, ShoupOf(yb, f.Q), f.Q)
	}
	for i, v := range yl {
		yh[i], yl[i] = v>>32, v&(1<<32-1)
	}
	var o acc3
	for a, xa := range x {
		sh, sl := smallDot(t[a*g*g:(a+1)*g*g], yh, yl)
		lo, carry := bits.Add64(sh<<32, sl, 0)
		hi := sh>>32 + carry
		o.add(bits.Mul64(reduceShifted(hi<<k.s|lo>>(64-k.s), lo<<k.s, k), xa))
	}
	return o.reduce(k)
}

// smallDot returns Σ_c t[c]·zh[c] and Σ_c t[c]·zl[c] for t below 2^16
// and zh, zl below 2^32: len(t) < 2^16 keeps each sum in one word. Kept
// out of line so the sums stay in registers; two pairs of them halve
// the chain of dependent adds.
//
//go:noinline
func smallDot(t []uint16, zh, zl []uint64) (sh, sl uint64) {
	zh, zl = zh[:len(t)], zl[:len(t)]
	var sh1, sl1 uint64
	c := 0
	for ; c+2 <= len(t); c += 2 {
		t0, t1 := uint64(t[c]), uint64(t[c+1])
		sh += t0 * zh[c]
		sl += t0 * zl[c]
		sh1 += t1 * zh[c+1]
		sl1 += t1 * zl[c+1]
	}
	for ; c < len(t); c++ {
		sh += uint64(t[c]) * zh[c]
		sl += uint64(t[c]) * zl[c]
	}
	return sh + sh1, sl + sl1
}

// dotPair returns Σ_e x[e]·ya[e] and Σ_e x[e]·yb[e] as two-word sums;
// len(x) <= 16 keeps them below 2^128. Inlined, its accumulators spill
// to the stack (43 against 37 µs for a 32×32 block).
//
//go:noinline
func dotPair(x, ya, yb []uint64) (ah, al, bh, bl uint64) {
	ya, yb = ya[:len(x)], yb[:len(x)]
	for e, xv := range x {
		var c uint64
		hi, lo := bits.Mul64(xv, ya[e])
		al, c = bits.Add64(al, lo, 0)
		ah, _ = bits.Add64(ah, hi, c)
		hi, lo = bits.Mul64(xv, yb[e])
		bl, c = bits.Add64(bl, lo, 0)
		bh, _ = bits.Add64(bh, hi, c)
	}
	return ah, al, bh, bl
}

// acc3 is the three-word sum acc3[2]·2^128 + acc3[1]·2^64 + acc3[0].
type acc3 [3]uint64

func (s *acc3) add(hi, lo uint64) {
	var c uint64
	s[0], c = bits.Add64(s[0], lo, 0)
	s[1], c = bits.Add64(s[1], hi, c)
	s[2] += c
}

// reduce returns the sum mod q, given s[2] < q.
func (s *acc3) reduce(k Kernel) uint64 { return reduce2(reduce2(s[2], s[1], k), s[0], k) }

// AddVec sets dst[i] = a[i]+b[i] mod q over canonical entries. dst may
// alias a or b, or sit one entry below b (dst = a = x[:n], b = x[1:]), as
// in internal/rs's forward-difference step: each b[i] is read before
// dst[i+1] is written. a and b must be at least as long as dst. With SubVec
// it is the whole inner loop of a 0/±1 Yates level (internal/yates), where
// unrolling took the 7×4 Strassen transform from 55 to 40 µs.
func (f Field) AddVec(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d0, d1 := f.Add(a[i], b[i]), f.Add(a[i+1], b[i+1])
		d2, d3 := f.Add(a[i+2], b[i+2]), f.Add(a[i+3], b[i+3])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < n; i++ {
		dst[i] = f.Add(a[i], b[i])
	}
}

// SubVec sets dst[i] = a[i]−b[i] mod q; same contract as AddVec.
func (f Field) SubVec(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d0, d1 := f.Sub(a[i], b[i]), f.Sub(a[i+1], b[i+1])
		d2, d3 := f.Sub(a[i+2], b[i+2]), f.Sub(a[i+3], b[i+3])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < n; i++ {
		dst[i] = f.Sub(a[i], b[i])
	}
}

// ReduceVec4Q canonicalizes entries from the Harvey lazy range [0, 4q)
// in place: two conditional subtractions per entry.
func ReduceVec4Q(a []uint64, q uint64) {
	twoQ := 2 * q
	for i, v := range a {
		if v >= twoQ {
			v -= twoQ
		}
		if v >= q {
			v -= q
		}
		a[i] = v
	}
}
