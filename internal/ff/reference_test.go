package ff

// One differential table for the package: every fast path — the scalar
// products, the vector sweeps, the fused dot products, Horner and the
// batch inversion — held bit for bit to a reference whose every
// product is reduced by the hardware division (bits.Div64; the fused
// sums add with Field.Add), over the operand ranges each kernel admits. A new kernel lands as one row: its fast form, its
// reference, and the domain of each operand.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// reduce128Div is the pre-Barrett reduction: one hardware 128/64
// division. It is the oracle every row of kernelRows is held to.
func (f Field) reduce128Div(hi, lo uint64) uint64 {
	_, rem := bits.Div64(hi, lo, f.Q)
	return rem
}

// mulDiv is a·b mod q through the division oracle, for any a, b whose
// product's high word is below q (a < 4q and b < q suffice).
func (f Field) mulDiv(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return f.reduce128Div(hi, lo)
}

// expDiv is Exp through the division oracle.
func (f Field) expDiv(a, e uint64) uint64 {
	a %= f.Q
	result := uint64(1 % f.Q)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = f.mulDiv(result, a)
		}
		a = f.mulDiv(a, a)
	}
	return result
}

// isPrimeDiv is IsPrime through the division oracle: Miller–Rabin to
// the first twelve prime bases, which decide every n < 2^64.
func isPrimeDiv(n uint64) bool {
	if n < 2 {
		return false
	}
	f, d, r := Field{Q: n}, n-1, 0
	for ; d%2 == 0; d /= 2 {
		r++
	}
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n%a == 0 {
			return n == a
		}
		x := f.expDiv(a, d)
		for i := 1; i < r && x != 1 && x != n-1; i++ {
			x = f.mulDiv(x, x)
		}
		if x != 1 && x != n-1 {
			return false
		}
	}
	return true
}

// prevPrime returns the largest prime <= n (n >= 2), by the oracle.
func prevPrime(n uint64) uint64 {
	for !isPrimeDiv(n) {
		n--
	}
	return n
}

// diffModuli is the modulus sweep of every row: the smallest primes,
// mid-range primes (the last is NTTPrime(2^45, 2^12), the kind the
// protocol selects), and the edge below 2^62 and below 2^62 − 2^20.
// Literals: a prime search runs on the products under test.
var diffModuli = []uint64{2, 3, 5, 7, 65537, 1048583, 1<<31 - 1, 1<<61 - 1, topPrime, 4611686018426339311, 35184372121601}

// topPrime is the largest prime the package accepts, below 2^62.
const topPrime = 4611686018427387847

// TestMain holds IsPrime to the oracle before any test runs: a broken
// product under it then fails here, not in a prime search that loops
// until the binary's timeout.
func TestMain(m *testing.M) {
	composites := []uint64{0, 1, 4, 9, 561, 65535, 1<<31 + 1, (1<<31 - 1) * 3, 1<<61 + 1, MaxPrime, 3215031751}
	for _, n := range slices.Concat(diffModuli, randomPrimes, composites) {
		if got, want := IsPrime(n), isPrimeDiv(n); got != want {
			fmt.Fprintf(os.Stderr, "IsPrime(%d) = %v, the division oracle says %v\n", n, got, want)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// A dom is an operand's precondition: the range [lo, hi(q)) a kernel
// accepts, hi returning 0 for every 64-bit word.
type dom struct {
	lo uint64
	hi func(q uint64) uint64
}

var (
	canon   = dom{0, func(q uint64) uint64 { return q }}
	nonzero = dom{1, func(q uint64) uint64 { return q }}
	lazy2   = dom{0, func(q uint64) uint64 { return 2 * q }}
	lazy4   = dom{0, func(q uint64) uint64 { return 4 * q }}
	word    = dom{0, func(uint64) uint64 { return 0 }}
	u16     = dom{0, func(uint64) uint64 { return 1 << 16 }}
)

// clamp maps any word into the domain, zero to its top value, so that
// an all-zero fuzz input is every operand at its largest.
func (d dom) clamp(q, x uint64) uint64 {
	if hi := d.hi(q); hi != 0 {
		return hi - 1 - x%(hi-d.lo)
	}
	return ^x
}

// edges are the domain's extreme values; all of it when it is small.
func (d dom) edges(q uint64) []uint64 {
	hi := d.hi(q)
	if hi != 0 && hi-d.lo <= 16 {
		var all []uint64
		for x := d.lo; x < hi; x++ {
			all = append(all, x)
		}
		return all
	}
	if hi == 0 {
		return []uint64{0, 1, q - 1, q, 2*q - 1, 4*q - 1, ^uint64(0) - 1, ^uint64(0)}
	}
	return []uint64{d.lo, d.lo + 1, d.lo + 2, (d.lo + hi) / 2, hi - 2, hi - 1}
}

// Modulus classes: a row's fast path needs a prime, an odd modulus
// (MontOf), or any modulus in [2, MaxPrime].
const (
	primeQ = iota
	oddQ
	anyQ
)

// kernelRow is one fast path against its reference. ops are the operand
// domains and shape their lengths at a size n (nil: every operand n
// long); fast and ref return what the row compares, bit for bit.
type kernelRow struct {
	name, test string // test runs the row; "" is TestKernelsMatchReference
	modulus    int
	moduli     []uint64 // nil: diffModuli
	sizes      []int    // nil: vecSizes
	trials     int      // random draws per modulus and size; 0 is one
	ops        []dom
	shape      func(n int) []int
	fast, ref  func(f Field, v [][]uint64) []uint64
}

// point lifts a scalar kernel to a row's form: fn runs at every index
// of the first operand, with the others at the same index (an operand
// of length 1 is a scalar).
func point(fn func(f Field, x []uint64) uint64) func(Field, [][]uint64) []uint64 {
	return func(f Field, v [][]uint64) []uint64 {
		out, x := make([]uint64, len(v[0])), make([]uint64, len(v))
		for i := range out {
			for j, vj := range v {
				x[j] = vj[min(i, len(vj)-1)]
			}
			out[i] = fn(f, x)
		}
		return out
	}
}

// into runs a kernel on a copy of v's first operand (or a fresh vector
// of its length when fresh) and returns what the kernel left there.
func into(fresh bool, fn func(f Field, dst []uint64, v [][]uint64)) func(Field, [][]uint64) []uint64 {
	return func(f Field, v [][]uint64) []uint64 {
		dst := slices.Clone(v[0])
		if fresh {
			dst = make([]uint64, len(dst))
		}
		fn(f, dst, v)
		return dst
	}
}

// twice runs fn into a fresh dst with src the first operand, then with
// dst aliasing src; the reference is ref's result twice over.
func twice(fn func(f Field, dst, src []uint64, v [][]uint64), ref func(Field, [][]uint64) []uint64) (fast, ref2 func(Field, [][]uint64) []uint64) {
	return func(f Field, v [][]uint64) []uint64 {
			dst, alias := make([]uint64, len(v[0])), slices.Clone(v[0])
			fn(f, dst, v[0], v)
			fn(f, alias, alias, v)
			return append(dst, alias...)
		}, func(f Field, v [][]uint64) []uint64 {
			out := ref(f, v)
			return append(out, out...)
		}
}

// montOut maps a MulMont result r = x·2^-64 back to x through the
// oracle, and a non-canonical r to a value no reference returns.
func montOut(f Field, r uint64) uint64 {
	if r >= f.Q {
		return ^uint64(0)
	}
	return f.mulDiv(r, f.reduce128Div(1, 0))
}

var (
	vecSizes        = []int{0, 1, 2, 3, 4, 5, 7, 8, 33, 129}
	mulRef          = point(func(f Field, x []uint64) uint64 { return f.mulDiv(x[0], x[1]) })
	modRef          = point(func(f Field, x []uint64) uint64 { return x[0] % f.Q })
	invRef          = point(func(f Field, x []uint64) uint64 { return f.expDiv(x[0], f.Q-2) })
	mulFast         = point(func(f Field, x []uint64) uint64 { return f.Mul(x[0], x[1]) })
	addFast, addRef = twice(func(f Field, dst, a []uint64, v [][]uint64) { f.AddVec(dst, a, v[1]) },
		point(func(f Field, x []uint64) uint64 { return (x[0] + x[1]) % f.Q }))
	subFast, subRef = twice(func(f Field, dst, a []uint64, v [][]uint64) { f.SubVec(dst, a, v[1]) },
		point(func(f Field, x []uint64) uint64 { return (x[0] + f.Q - x[1]) % f.Q }))
	// The Gray-code sweep runs MulSumVecMont with dst aliasing src.
	montFast, montRef = twice(func(f Field, dst, src []uint64, v [][]uint64) {
		MulSumVecMont(dst, src, v[1], v[2][0], f.Q, MontOf(f.Q))
		for i, r := range dst {
			dst[i] = montOut(f, r)
		}
	}, point(func(f Field, x []uint64) uint64 { return f.mulDiv((x[1]+x[2])%f.Q, x[0]) }))
	// Sizes of the MulAddPoly row index these lengths of (p, c, b): empty
	// operands, p cut below the full product or reaching past it, c of odd
	// and even length (one pass per pair of coefficients), c past p.
	mulAddPolyShapes = [][]int{{0, 1, 1}, {3, 0, 2}, {3, 2, 0}, {1, 1, 1}, {6, 2, 5}, {4, 2, 5},
		{12, 2, 5}, {9, 3, 7}, {20, 5, 10}, {3, 6, 2}, {40, 8, 33}}
	// randomPrimes are 40 seeded primes below 2^61.
	randomPrimes = func() []uint64 {
		rng, qs := rand.New(rand.NewSource(11)), make([]uint64, 40)
		for i := range qs {
			for qs[i] = 2 + rng.Uint64()%(1<<61); !isPrimeDiv(qs[i]); qs[i]++ {
			}
		}
		return qs
	}()
)

// Mul, ReduceU and reduce2 draw 27·192 = 5184 random operands a
// modulus, Mul over the random primes 3·192 = 576 a prime.
var kernelRows = []kernelRow{
	{name: "Mul", test: "TestMulMatchesDivisionReference", trials: 27, ops: []dom{canon, canon}, fast: mulFast, ref: mulRef},
	{name: "Mul/random primes", test: "TestMulMatchesDivisionReferenceRandomPrimes", moduli: randomPrimes, trials: 3,
		ops: []dom{canon, canon}, fast: mulFast, ref: mulRef},
	{name: "Mul/tiny fields", test: "TestMulExhaustiveTinyFields", moduli: []uint64{2, 3, 5, 7, 11, 13},
		ops: []dom{canon, canon}, fast: mulFast, ref: mulRef},
	{name: "Mul/2^61-1", test: "TestMulLargeModulus", moduli: []uint64{1<<61 - 1}, ops: []dom{canon, canon}, fast: mulFast, ref: mulRef},
	{name: "ReduceU", test: "TestReduceUMatchesModulo", trials: 27, ops: []dom{word}, ref: modRef,
		fast: point(func(f Field, x []uint64) uint64 { return f.ReduceU(x[0]) })},
	// The two-word reduction under the fused sums (MulAddPoly, MatMulDot,
	// Trilinear): its dividends, unlike Mul's, reach the second correction.
	{name: "reduce2", trials: 27, ops: []dom{canon, word},
		fast: point(func(f Field, x []uint64) uint64 { return reduce2(x[0], x[1], f.Kernel()) }),
		ref:  point(func(f Field, x []uint64) uint64 { return f.reduce128Div(x[0], x[1]) })},
	{name: "Exp", test: "TestExpMatchesDivisionReference", ops: []dom{word, word},
		fast: point(func(f Field, x []uint64) uint64 { return f.Exp(x[0], x[1]) }),
		ref:  point(func(f Field, x []uint64) uint64 { return f.expDiv(x[0], x[1]) })},
	// In [0, 2q) and congruent: reduced once if below 2q, else left out of
	// the reference's range.
	{name: "MulShoup", modulus: anyQ, ops: []dom{word, canon}, ref: mulRef,
		fast: point(func(f Field, x []uint64) uint64 {
			if r := MulShoup(x[0], x[1], ShoupOf(x[1], f.Q), f.Q); r < 2*f.Q {
				return r % f.Q
			}
			return ^uint64(0)
		})},
	{name: "MulMont", modulus: oddQ, ops: []dom{lazy2, canon}, ref: mulRef,
		fast: point(func(f Field, x []uint64) uint64 { return montOut(f, MulMont(x[0], x[1], f.Q, MontOf(f.Q))) })},
	{name: "MulVecK", test: "TestMulVecKMatchesScalar", ops: []dom{lazy4, canon}, ref: mulRef,
		fast: into(true, func(f Field, dst []uint64, v [][]uint64) { MulVecK(dst, v[0], v[1], f.Kernel()) })},
	{name: "MulVecShoup", test: "TestMulVecShoupMatchesScalar", modulus: anyQ, ops: []dom{word, canon}, ref: mulRef,
		shape: func(n int) []int { return []int{n, 1} },
		fast:  into(true, func(f Field, dst []uint64, v [][]uint64) { MulVecShoup(dst, v[0], v[1][0], ShoupOf(v[1][0], f.Q), f.Q) })},
	{name: "MulAddVecShoup", test: "TestMulAddVecShoupMatchesScalar", modulus: anyQ, ops: []dom{canon, word, canon},
		shape: func(n int) []int { return []int{n, n, 1} },
		fast: into(false, func(f Field, dst []uint64, v [][]uint64) {
			MulAddVecShoup(dst, v[1], v[2][0], ShoupOf(v[2][0], f.Q), f.Q)
		}),
		ref: point(func(f Field, x []uint64) uint64 { return (x[0] + f.mulDiv(x[1], x[2])) % f.Q })},
	{name: "MulSumVecMont", test: "TestMulSumVecMontMatchesScalar", modulus: oddQ, ops: []dom{canon, canon, canon},
		shape: func(n int) []int { return []int{n, n, 1} }, fast: montFast, ref: montRef},
	{name: "ReduceVec4Q", test: "TestReduceVec4Q", modulus: anyQ, ops: []dom{lazy4}, ref: modRef,
		fast: into(false, func(f Field, dst []uint64, _ [][]uint64) { ReduceVec4Q(dst, f.Q) })},
	{name: "AddVec", test: "TestAddSubVecMatchScalar", ops: []dom{canon, canon}, fast: addFast, ref: addRef},
	{name: "SubVec", test: "TestAddSubVecMatchScalar", ops: []dom{canon, canon}, fast: subFast, ref: subRef},
	// b one entry ahead of dst: the forward-difference step.
	{name: "AddVec/shifted", test: "TestAddSubVecMatchScalar", ops: []dom{canon},
		fast: into(false, func(f Field, a []uint64, _ [][]uint64) {
			if n := len(a); n > 0 {
				f.AddVec(a[:n-1], a[:n-1], a[1:])
			}
		}),
		ref: into(false, func(f Field, a []uint64, _ [][]uint64) {
			for i := 0; i+1 < len(a); i++ {
				a[i] = (a[i] + a[i+1]) % f.Q
			}
		})},
	{name: "MatMulDot", test: "TestMatMulDotMatchesScalar", ops: []dom{canon, canon, canon},
		sizes: []int{0, 1, 2, 3, 16, 27, 32, 64}, shape: func(n int) []int { return []int{n * n, n * n, n * n} },
		fast: func(f Field, v [][]uint64) []uint64 { return []uint64{f.MatMulDot(v[0], v[1], v[2], isqrt(len(v[0])))} },
		ref: func(f Field, v [][]uint64) []uint64 {
			x, yt, w, n, acc := v[0], v[1], v[2], isqrt(len(v[0])), uint64(0)
			for d := range n {
				for c := range n {
					xy := uint64(0)
					for e := range n {
						xy = f.Add(xy, f.mulDiv(x[d*n+e], yt[c*n+e]))
					}
					acc = f.Add(acc, f.mulDiv(xy, w[d*n+c]))
				}
			}
			return []uint64{acc}
		}},
	{name: "Trilinear", test: "TestTrilinearMatchesScalar", ops: []dom{u16, canon, canon, canon},
		sizes: []int{0, 1, 2, 4, 16, 31}, shape: func(g int) []int { return []int{g * g * g, g, g, g} },
		fast: func(f Field, v [][]uint64) []uint64 {
			t, g := make([]uint16, len(v[0])), len(v[1])
			for i, x := range v[0] {
				t[i] = uint16(x)
			}
			return []uint64{f.Trilinear(t, v[1], v[2], v[3], make([]uint64, 2*g*g+1))}
		},
		ref: func(f Field, v [][]uint64) []uint64 {
			t, x, y, z, acc := v[0], v[1], v[2], v[3], uint64(0)
			for a := range x {
				for b := range y {
					for c := range z {
						tz := f.mulDiv(t[(a*len(y)+b)*len(z)+c]%f.Q, z[c])
						acc = f.Add(acc, f.mulDiv(x[a], f.mulDiv(y[b], tz)))
					}
				}
			}
			return []uint64{acc}
		}},
	{name: "MulAddPoly", test: "TestMulAddPolyMatchesScalar", ops: []dom{canon, canon, canon},
		sizes: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, shape: func(n int) []int { return mulAddPolyShapes[n%len(mulAddPolyShapes)] },
		fast: into(false, func(f Field, p []uint64, v [][]uint64) { f.MulAddPoly(p, v[1], v[2]) }),
		ref: into(false, func(f Field, p []uint64, v [][]uint64) {
			for i, ci := range v[1] {
				for j, bj := range v[2] {
					if i+j < len(p) {
						p[i+j] = f.Add(p[i+j], f.mulDiv(ci, bj))
					}
				}
			}
		})},
	// The verifier's side of paper eq. (2), a lazy MulShoup chain.
	{name: "Horner", test: "TestHorner", ops: []dom{canon, word}, shape: func(n int) []int { return []int{n, 1} },
		fast: func(f Field, v [][]uint64) []uint64 { return []uint64{f.Horner(v[0], v[1][0])} },
		ref: func(f Field, v [][]uint64) []uint64 {
			acc := uint64(0)
			for _, c := range slices.Backward(v[0]) {
				acc = (f.mulDiv(acc, v[1][0]%f.Q) + c) % f.Q
			}
			return []uint64{acc}
		}},
	// The amortized Lagrange basis at eight points into one reused buffer,
	// over the grids 1..R and 0..R-1 (R the second operand's length),
	// against the one-shot kernels.
	{name: "LagrangeEvaluator", test: "TestLagrangeEvaluatorMatchesOneShot", moduli: []uint64{1048583}, ops: []dom{canon, canon},
		sizes: []int{1, 2, 7, 64, 343}, shape: func(n int) []int { return []int{8, n} },
		fast: func(f Field, v [][]uint64) (out []uint64) {
			buf := make([]uint64, len(v[1]))
			for _, le := range []*LagrangeEvaluator{f.NewLagrangeEvaluatorOneBased(len(buf)), f.NewLagrangeEvaluatorZeroBased(len(buf))} {
				for _, x := range v[0] {
					out = append(out, le.At(x, buf)...)
				}
			}
			return out
		},
		ref: func(f Field, v [][]uint64) (out []uint64) {
			for _, at := range []func(int, uint64) []uint64{f.LagrangeAtOneBased, f.LagrangeAtZeroBased} {
				for _, x := range v[0] {
					out = append(out, at(len(v[1]), x)...)
				}
			}
			return out
		}},
	{name: "Inv", test: "TestInvProperty", ops: []dom{nonzero}, ref: invRef,
		fast: point(func(f Field, x []uint64) uint64 { return f.Inv(x[0]) })},
	{name: "BatchInv", test: "TestBatchInv", ops: []dom{nonzero}, ref: invRef,
		fast: into(false, func(f Field, xs []uint64, _ [][]uint64) { f.BatchInv(xs) })},
	{name: "BatchInvScratch", test: "TestBatchInvScratchMatchesBatchInv", ops: []dom{nonzero}, ref: invRef,
		fast: into(false, func(f Field, xs []uint64, _ [][]uint64) {
			f.BatchInvScratch(xs, slices.Repeat([]uint64{^uint64(0)}, len(xs)+1))
		})},
}

func isqrt(n int) int {
	s := 0
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

// field is the row's Field over q: Must for the rows that need a prime.
func (r kernelRow) field(q uint64) Field {
	if r.modulus == primeQ {
		return Must(q)
	}
	return newUnchecked(q)
}

// check fills the row's operands at size n from next(domain, i, j), the
// entry i of operand j, and fails if fast and ref differ.
func (r kernelRow) check(t *testing.T, f Field, n int, what string, next func(d dom, i, j int) uint64) {
	lens := slices.Repeat([]int{n}, len(r.ops))
	if r.shape != nil {
		lens = r.shape(n)
	}
	v := make([][]uint64, len(r.ops))
	for j := range v {
		v[j] = make([]uint64, lens[j])
		for i := range v[j] {
			v[j][i] = next(r.ops[j], i, j)
		}
	}
	if got, want := r.fast(f, v), r.ref(f, v); !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("q=%d n=%d %s: %s differs from its reference at result %d of %d", f.Q, n, what, r.name, i, len(want))
	}
}

// runKernels runs the rows whose test is the calling one, on every
// modulus of the row's sweep and size, with random operands and with
// every operand at the top of its domain, then on the domains' edges in
// every combination: entry i of operand j is edge (i/E^j + k) mod E,
// for each rotation k where an operand is a scalar, so that it takes
// every edge too.
func runKernels(t *testing.T) {
	ran := false
	for _, r := range kernelRows {
		if r.test != strings.TrimPrefix(t.Name(), "TestKernelsMatchReference") {
			continue
		}
		ran = true
		t.Run(r.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(r.name))))
			moduli, sizes := r.moduli, r.sizes
			if moduli == nil {
				moduli = diffModuli
			}
			if sizes == nil {
				sizes = vecSizes
			}
			for _, q := range moduli {
				if r.modulus == oddQ && q%2 == 0 {
					continue
				}
				f := r.field(q)
				for _, n := range sizes {
					for range max(r.trials, 1) {
						r.check(t, f, n, "random", func(d dom, _, _ int) uint64 { return d.clamp(q, rng.Uint64()) })
					}
					r.check(t, f, n, "top", func(d dom, _, _ int) uint64 { return d.clamp(q, 0) })
				}
				n, rotations := sizes[len(sizes)/2], 1
				if r.shape == nil {
					for _, d := range r.ops {
						n = min(4096, n*len(d.edges(q)))
					}
				} else if slices.Contains(r.shape(n), 1) {
					rotations = len(word.edges(q))
				}
				for k := range rotations {
					r.check(t, f, n, fmt.Sprintf("edges, rotation %d", k), func(d dom, i, j int) uint64 {
						e := d.edges(q)
						p := i
						for range j {
							p /= len(e)
						}
						return e[(p+k)%len(e)]
					})
				}
			}
		})
	}
	if !ran {
		t.Fatalf("no row of kernelRows names %s", t.Name())
	}
}

// TestKernelsMatchReference runs the rows no test of their own runs. A row's
// test names one of the functions below; the fuzz seeds run every row
// whatever its test.
func TestKernelsMatchReference(t *testing.T) { runKernels(t) }

// The rows that predate the table run under the names of the tests they
// replaced.
func TestMulMatchesDivisionReference(t *testing.T)             { runKernels(t) }
func TestMulMatchesDivisionReferenceRandomPrimes(t *testing.T) { runKernels(t) }
func TestMulExhaustiveTinyFields(t *testing.T)                 { runKernels(t) }
func TestMulLargeModulus(t *testing.T)                         { runKernels(t) }
func TestReduceUMatchesModulo(t *testing.T)                    { runKernels(t) }
func TestExpMatchesDivisionReference(t *testing.T)             { runKernels(t) }
func TestMulVecKMatchesScalar(t *testing.T)                    { runKernels(t) }
func TestMulVecShoupMatchesScalar(t *testing.T)                { runKernels(t) }
func TestMulAddVecShoupMatchesScalar(t *testing.T)             { runKernels(t) }
func TestMulSumVecMontMatchesScalar(t *testing.T)              { runKernels(t) }
func TestReduceVec4Q(t *testing.T)                             { runKernels(t) }
func TestAddSubVecMatchScalar(t *testing.T)                    { runKernels(t) }
func TestMatMulDotMatchesScalar(t *testing.T)                  { runKernels(t) }
func TestTrilinearMatchesScalar(t *testing.T)                  { runKernels(t) }
func TestMulAddPolyMatchesScalar(t *testing.T)                 { runKernels(t) }
func TestHorner(t *testing.T)                                  { runKernels(t) }
func TestLagrangeEvaluatorMatchesOneShot(t *testing.T)         { runKernels(t) }
func TestInvProperty(t *testing.T)                             { runKernels(t) }
func TestBatchInv(t *testing.T)                                { runKernels(t) }
func TestBatchInvScratchMatchesBatchInv(t *testing.T)          { runKernels(t) }

// FuzzKernels is the table on fuzzer-chosen rows, moduli, sizes and
// operands: sel picks the row, q maps into its modulus class (or onto
// the row's own moduli), and the
// 8-byte words of data, cycled, fill the operands through their
// domains' clamps (no data: every operand at its top).
func FuzzKernels(f *testing.F) { fuzzKernels(f) }

// The fuzz targets that predate the table fuzz only their rows.
func FuzzMul(f *testing.F)            { fuzzKernels(f, "Mul", "ReduceU") }
func FuzzMulShoup(f *testing.F)       { fuzzKernels(f, "MulShoup") }
func FuzzMulMont(f *testing.F)        { fuzzKernels(f, "MulMont") }
func FuzzHorner(f *testing.F)         { fuzzKernels(f, "Horner") }
func FuzzMulAddVecShoup(f *testing.F) { fuzzKernels(f, "MulAddVecShoup") }
func FuzzMulSumVecMont(f *testing.F)  { fuzzKernels(f, "MulSumVecMont") }

func fuzzKernels(f *testing.F, names ...string) {
	rows := slices.DeleteFunc(slices.Clone(kernelRows), func(r kernelRow) bool {
		return len(names) > 0 && !slices.Contains(names, r.name)
	})
	seeds := len(rows)
	if len(names) > 0 {
		seeds = 1 // the named rows share one set of seeds
	}
	for sel := range seeds {
		f.Add(uint8(sel), uint8(0), uint64(0), []byte(nil))
		f.Add(uint8(sel), uint8(9), uint64(topPrime), []byte(nil))
		f.Add(uint8(sel), uint8(9), uint64(topPrime), bytes.Repeat([]byte{0xff}, 72))
		f.Add(uint8(sel), uint8(4), uint64(1048583), []byte("0123456789abcdefghijklmnopqrstuvwxyz0123"))
		f.Add(uint8(sel), uint8(33), uint64(1<<61-1), []byte("\x01\x00\x00\x00\x00\x00\x00\x80\xfe\xff\xff\xff\xff\xff\xff\x3f"))
		f.Add(uint8(sel), uint8(2), uint64(13), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	}
	f.Fuzz(func(t *testing.T, sel, size uint8, q uint64, data []byte) {
		words := make([]uint64, max(1, len(data)/8))
		for i := range len(data) / 8 {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		for k, r := range rows {
			if len(names) > 0 || k == int(sel)%len(rows) {
				q := []uint64{prevPrime(2 + q%(MaxPrime-1)), max(3, 2+q%(MaxPrime-1)|1), 2 + q%(MaxPrime-1)}[r.modulus]
				if r.moduli != nil {
					q = r.moduli[q%uint64(len(r.moduli))]
				}
				n, next := int(size)%129, 0
				if r.sizes != nil {
					n = r.sizes[n%len(r.sizes)]
				}
				r.check(t, r.field(q), n, "fuzz", func(d dom, _, _ int) uint64 {
					next++
					return d.clamp(q, words[(next-1)%len(words)])
				})
			}
		}
	})
}
