// Package triangles implements the paper's sparsity-aware results (§6),
// all on the Itai–Rodeh identity triangles = trace(A³)/6: the
// split/sparse parallel triangle counter of Theorem 4, the Camelot proof
// polynomial of Theorem 3 built on the §3.3 polynomial extension of
// Yates's algorithm, and the Alon–Yuster–Zwick-bound parallel design of
// Theorem 5.
package triangles

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"camelot/internal/core"
	"camelot/internal/crt"
	"camelot/internal/ff"
	"camelot/internal/graph"
	"camelot/internal/par"
	"camelot/internal/plan"
	"camelot/internal/tensor"
	"camelot/internal/yates"
)

// CountNaive counts triangles by enumerating vertex triples u < v < w —
// the O(n³) ground truth.
func CountNaive(g *graph.Graph) uint64 {
	n := g.N()
	count := uint64(0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				continue
			}
			for w := v + 1; w < n; w++ {
				if g.HasEdge(u, w) && g.HasEdge(v, w) {
					count++
				}
			}
		}
	}
	return count
}

// CountEdgeIterator counts triangles by intersecting neighborhoods along
// each edge with word-parallel bitsets: O(m·n/64).
func CountEdgeIterator(g *graph.Graph) uint64 {
	total := uint64(0)
	for _, e := range g.Edges() {
		nu, nv := g.Neighbors(e[0]), g.Neighbors(e[1])
		words := (g.N() + 63) / 64
		for w := 0; w < words; w++ {
			x := nu.Word(w) & nv.Word(w)
			for x != 0 {
				x &= x - 1
				total++
			}
		}
	}
	return total / 3
}

// adjacencyEntries returns the sparse Kronecker-indexed entries of the
// adjacency matrix for the given decomposition: one entry per ordered
// edge direction, at the interleaved pair index N0·sp[u] + sp[v].
func adjacencyEntries(g *graph.Graph, dc tensor.Decomposition) []yates.Entry {
	sp := spread(dc, g.N())
	entries := make([]yates.Entry, 0, 2*g.M())
	for _, e := range g.Edges() {
		entries = append(entries,
			yates.Entry{Index: dc.N0*sp[e[0]] + sp[e[1]], Value: 1},
			yates.Entry{Index: dc.N0*sp[e[1]] + sp[e[0]], Value: 1},
		)
	}
	return entries
}

// spread is the table sp[v] = dc.PairIndex(0, v) for v < n, so that
// dc.PairIndex(u, v) = N0·sp[u] + sp[v].
func spread(dc tensor.Decomposition, n int) []int {
	sp := make([]int, n)
	for v := range sp {
		sp[v] = dc.PairIndex(0, v)
	}
	return sp
}

// blockSide bounds the side N0^c of the blocks P(z0) is summed over
// classically. BenchmarkTriangleAt at ℓ = 6 (n=256, p=0.3, 2-vCPU
// reference host, medians of eight rounds) read 0.43 / 0.38 / 0.36 ms
// per point for sides 16 / 32 / 64, and 32 and 64 within 2% with ℓ forced
// to 6 and 7 at n=128; 32 does 7/8 of 64's products for the same time.
const blockSide = 32

// sparseTriple bundles the three split/sparse transforms (α, β, γ sides)
// of the trace identity (19) for one modulus, each over the R0×n0²
// transposed base and laid out in side×side blocks. It is the verifier's
// evaluator and the triangle plan.Plan for that modulus wherever the
// group tensor (tensorPlan) does not pay.
type sparseTriple struct {
	f       ff.Field
	side    int
	levels  int // ℓ - cut, the Yates levels above the blocks
	a, b, c *yates.SplitSparse
	n0      int // the base's N0: an entry's group is its T−ℓ low pair digits
}

// newSparseTriple builds the three sides over one set of entry tables.
// The ℓ inner digits split at cut c, the most with N0^c <= blockSide:
// the top ℓ-c stay Yates levels of the base, and the low c pair digits
// are an entry's place (row, col) in an N0^c × N0^c block, row-major for
// α and γ, transposed for β — the layout ff.MatMulDot reads.
func newSparseTriple(f ff.Field, entries []yates.Entry, dc tensor.Decomposition, ell int) (*sparseTriple, error) {
	alphaT, betaT, gammaT := dc.SparseBases(f)
	a, err := yates.NewSplitSparse(f, alphaT, dc.R0, dc.N0*dc.N0, dc.T, entries, ell)
	if err != nil {
		return nil, err
	}
	b, c := a.Sibling(betaT), a.Sibling(gammaT)
	cut, side := 0, 1
	for cut < ell && side*dc.N0 <= blockSide {
		cut, side = cut+1, side*dc.N0
	}
	rowMajor, colMajor := blockPlaces(dc, side)
	return &sparseTriple{f: f, side: side, levels: ell - cut,
		a: a.Blocked(cut, rowMajor), b: b.Blocked(cut, colMajor), c: c.Blocked(cut, rowMajor), n0: dc.N0}, nil
}

// blockPlaces maps the in-block pair index N0·sp[row] + sp[col] of a
// side×side block to i = row·side + col and to col·side + row.
func blockPlaces(dc tensor.Decomposition, side int) (rowMajor, colMajor []int) {
	sp := spread(dc, side)
	rowMajor, colMajor = make([]int, side*side), make([]int, side*side)
	for i := range rowMajor {
		j := dc.N0*sp[i/side] + sp[i%side]
		rowMajor[j], colMajor[j] = i, i%side*side+i/side
	}
	return rowMajor, colMajor
}

// tripleEvaluator evaluates P(z0) = Σ_v A_v(z0)·B_v(z0)·C_v(z0) — the
// verifier's per-point path, and the compiled plan's where the group
// tensor does not pay — as Σ_blocks ⟨X·Y, W⟩: identity (10) over the c
// block digits is that sum over each block's v.
// A point costs R0^{ℓ-c}·N0^{3c} products (7^{ℓ-c}·8^c for Strassen)
// plus the scatter, which with N0^c <= blockSide keeps Theorem 3's
// per-node Õ(m) bound. One Lagrange basis Φ(z0) — ea's, which eb and ec
// are siblings of — serves all three sides. It owns the evaluators'
// scratch and is not safe for concurrent use.
type tripleEvaluator struct {
	f          ff.Field
	side       int
	ea, eb, ec *yates.PartsEvaluator
}

func (tr *sparseTriple) evaluator() *tripleEvaluator {
	ea := tr.a.NewPartsEvaluator()
	return &tripleEvaluator{tr.f, tr.side, ea, ea.Sibling(tr.b), ea.Sibling(tr.c)}
}

// atBasis is P(z0) given phi = Φ(z0).
func (e *tripleEvaluator) atBasis(phi []uint64) uint64 {
	x, yt, w := e.ea.Blocks(phi), e.eb.Blocks(phi), e.ec.Blocks(phi)
	n, p := e.side*e.side, uint64(0)
	for o := 0; o < len(x); o += n {
		p = e.f.Add(p, e.f.MatMulDot(x[o:o+n], yt[o:o+n], w[o:o+n], e.side))
	}
	return p
}

// groupTensor is the triangle plan when the ℓ inner digits are one
// block (cut = ℓ) of unit entries. Each side's block is then
// Σ_a α_a(z0)·M_a over the G fixed 0/1 group blocks M_a of its Groups,
// so ⟨X·Y, W⟩ is the trilinear form Σ_{a,b,c} α_a·β_b·γ_c·T[a][b][c] with
// T[a][b][c] = ⟨M_a·M_b, M_c⟩, built once per plan: a point costs the
// three weight vectors and G³ products (ff.Trilinear) where the block
// costs side³. Evaluate keeps the block product, so the verifier does
// not share this contraction with the proof it checks.
type groupTensor struct {
	tr *sparseTriple
	g  int      // G, the groups of a side
	t  []uint16 // T[a][b][c] at (a·G+b)·G+c
}

// tensorPlan returns tr's group-tensor plan when it pays — one block,
// every entry value 1 and G³ <= side³ — and nil otherwise. At eval_bound
// (n=128) G = 16 groups and side = 32; at serve_cold's n=36 and
// ctrl_workers' n=48 G = side = 16, where the contraction's G³ products
// and three weight vectors still beat the block's side³ products and
// three scatters (1.7–2.0× per point on a 2-vCPU host; 2× at G = side
// = 4 and 2.5× or more at 9). Past the tie, at side 8 and G = 16 (n=32),
// the block product is 5–25% faster; at n=256 a Yates level sits above
// the block.
func (tr *sparseTriple) tensorPlan() *groupTensor {
	start, _, vals := tr.a.Groups()
	g := len(start) - 1
	if tr.levels != 0 || vals != nil || g*g*g > tr.side*tr.side*tr.side {
		return nil
	}
	return newGroupTensor(tr)
}

// orbitTable partitions the G³ triples (a, b, c) of a side's groups into
// the orbits of the six maps (a,b,c) → (a,b,c), (τa,c,b), (τb,τa,τc),
// (b,τc,τa), (τc,a,τb), (c,τb,a), where τ swaps the row and column digits
// of a group index (each base-N0² digit r·N0+c becomes c·N0+r). A
// symmetric adjacency has M_{τa} = M_aᵀ, and T[a][b][c] =
// trace(M_a·M_b·M_cᵀ) is invariant under all six: one count per orbit
// fills T. The table depends on N0 and G only.
type orbitTable struct {
	tau    []int    // τ on group indices
	rep    [][3]int // orbit i's first triple (a, b, c)
	start  []int    // orbit i is member[start[i]:start[i+1]]
	member []int    // triple indices (a·G+b)·G+c, each in exactly one orbit
}

// orbitTables holds the orbit table of every geometry past G = 1 that
// the plan rule admits for N0 = 2 and 3, keyed by N0 and G: with
// G = N0^{2k} groups and side = N0^ℓ, G <= side <= blockSide = 32
// leaves G = 4 and 16 for N0 = 2 and G = 9 for N0 = 3. Built once, it is
// only read; orbitsFor builds any other table (N0 = 4 or 5, G = side)
// per call.
var orbitTables = map[[2]int]*orbitTable{
	{2, 4}: newOrbitTable(2, 4), {2, 16}: newOrbitTable(2, 16), {3, 9}: newOrbitTable(3, 9),
}

// orbitsFor returns the orbit table of g groups numbered by base-N0²
// digits.
func orbitsFor(n0, g int) *orbitTable {
	if ot := orbitTables[[2]int{n0, g}]; ot != nil {
		return ot
	}
	return newOrbitTable(n0, g)
}

// newOrbitTable builds the orbit table of g = N0^{2k} groups, numbered
// as the decomposition low over k pair digits numbers pairs: τ maps
// low.PairIndex(u, v) to low.PairIndex(v, u).
func newOrbitTable(n0, g int) *orbitTable {
	low := tensor.Trivial(n0)
	low.T = 0
	for low.N()*low.N() < g {
		low.T++
	}
	n := low.N()
	ot := &orbitTable{tau: make([]int, g), start: []int{0}}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			ot.tau[low.PairIndex(u, v)] = low.PairIndex(v, u)
		}
	}
	tau, seen := ot.tau, make([]bool, g*g*g)
	for a := 0; a < g; a++ {
		for b := 0; b < g; b++ {
			for c := 0; c < g; c++ {
				if seen[(a*g+b)*g+c] {
					continue
				}
				for _, m := range [6][3]int{{a, b, c}, {tau[a], c, b}, {tau[b], tau[a], tau[c]},
					{b, tau[c], tau[a]}, {tau[c], a, tau[b]}, {c, tau[b], a}} {
					if i := (m[0]*g+m[1])*g + m[2]; !seen[i] {
						seen[i] = true
						ot.member = append(ot.member, i)
					}
				}
				ot.rep = append(ot.rep, [3]int{a, b, c})
				ot.start = append(ot.start, len(ot.member))
			}
		}
	}
	return ot
}

// rowTable returns rows[c][d], row d of the 0/1 group block M_c as a
// side-bit word (bit f is M_c[d][f]; side <= blockSide = 32), and every
// α entry's row and column as at[i] = d + f·blockSide, both read off α's
// row-major grouped places d·side+f. β's and γ's tables would be the
// same: the three sides group the same entries, β only transposed in its
// block. It returns nil when a group repeats a place, a block entry a
// row word cannot hold.
func rowTable(tr *sparseTriple) (rows [][blockSide]uint32, at []uint16) {
	start, pos, _ := tr.a.Groups()
	side := int32(tr.side)
	rows, at = make([][blockSide]uint32, len(start)-1), make([]uint16, len(pos))
	for c := range rows {
		for i := start[c]; i < start[c+1]; i++ {
			d, f := pos[i]/side, pos[i]%side
			if rows[c][d]&(1<<f) != 0 {
				return nil, nil
			}
			rows[c][d] |= 1 << f
			at[i] = uint16(d + f*blockSide)
		}
	}
	return rows, at
}

// newGroupTensor builds T for tr, which must be one block of unit
// entries of a symmetric adjacency, one orbit (orbitsFor) at a time: it
// counts the orbit through the member whose first group a has the fewest
// entries, T[a][b][c] = Σ over the entries (d, e) of M_a of
// popcount(M_b[e] & M_c[d]) on rowTable's words, and copies the count to
// the orbit's other members — Σ_orbits min(|M_a|, |M_b|, |M_c|) word
// operations (135k at eval_bound, against |D|·G² = 824k for every
// triple). The orbits are split over par helpers by their cumulative
// entry count, so skewed group sizes still split evenly: the build runs
// inside the plan's single-flight compile, which every other pool worker
// of the run waits on. It returns nil where rowTable does. α's places
// are γ's (both row-major over the same entries), so T[a][b][c] counts
// distinct (d, e, f) and stays within side³ <= 2^15.
func newGroupTensor(tr *sparseTriple) *groupTensor {
	start, _, _ := tr.a.Groups()
	g := len(start) - 1
	rows, at := rowTable(tr)
	if rows == nil {
		return nil
	}
	ot := orbitsFor(tr.n0, g)
	total := 0
	for _, r := range ot.rep {
		total += orbitWork(start, r)
	}
	t := make([]uint16, g*g*g)
	par.ForChunks(total, func(lo, hi int) {
		// This chunk counts, into their first members, the orbits whose
		// work starts in [lo, hi); one of no work past the last such
		// start keeps its zero.
		for i, done := 0, 0; i < len(ot.rep) && done < hi; i++ {
			r := ot.rep[i]
			if done >= lo {
				a, b, c := r[0], r[1], r[2]
				switch sa, sb, sc := start[a+1]-start[a], start[b+1]-start[b], start[c+1]-start[c]; {
				case sb < sa && sb <= sc:
					a, b, c = b, ot.tau[c], ot.tau[a]
				case sc < sa && sc < sb:
					a, b, c = c, ot.tau[b], a
				}
				t[ot.member[ot.start[i]]] = orbitCount(&rows[b], &rows[c], at[start[a]:start[a+1]])
			}
			done += orbitWork(start, r)
		}
	})
	for i := range ot.rep {
		first := ot.member[ot.start[i]]
		for _, m := range ot.member[ot.start[i]+1 : ot.start[i+1]] {
			t[m] = t[first]
		}
	}
	return &groupTensor{tr: tr, g: g, t: t}
}

// orbitWork is the entries newGroupTensor counts for the orbit of r:
// those of its smallest group, given the groups' starts.
func orbitWork(start []int, r [3]int) int {
	return min(start[r[0]+1]-start[r[0]], start[r[1]+1]-start[r[1]], start[r[2]+1]-start[r[2]])
}

// orbitCount is Σ over the entries d + e·blockSide of M_a in at of
// popcount(rb[e] & rc[d]), two entries to a 64-bit word. The indices are
// taken mod blockSide, which they are below, so that none is checked.
func orbitCount(rb, rc *[blockSide]uint32, at []uint16) uint16 {
	n := 0
	for i := 1; i < len(at); i += 2 {
		x, y := at[i-1], at[i]
		n += bits.OnesCount64((uint64(rb[x/blockSide%blockSide])<<32 | uint64(rb[y/blockSide%blockSide])) &
			(uint64(rc[x%blockSide])<<32 | uint64(rc[y%blockSide])))
	}
	if len(at)%2 == 1 {
		x := at[len(at)-1]
		n += bits.OnesCount32(rb[x/blockSide%blockSide] & rc[x%blockSide])
	}
	return uint16(n)
}

// EvaluateBlock implements plan.Plan: the three weight vectors of each
// point's basis, contracted with T. Its evaluators only weigh, so a call
// builds no scatter vector.
func (gt *groupTensor) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	e := gt.tr.evaluator()
	vals, yz := make([]uint64, len(xs)), make([]uint64, 2*gt.g*gt.g)
	e.ea.SweepBasis(xs, func(i int, phi []uint64) {
		vals[i] = gt.tr.f.Trilinear(gt.t, e.ea.Weights(phi), e.eb.Weights(phi), e.ec.Weights(phi), yz)
	})
	return plan.Rows(vals, 1), nil
}

// CountSplitSparse counts triangles with the Theorem 4 execution: the
// R values A_r, B_r, C_r of identity (19) are produced in O(R/m)
// independent parts of O(m) entries each via the split/sparse Yates
// algorithm, parts distributed over goroutines, and Σ_r A_r B_r C_r
// accumulated. Per-part space is Õ(m).
func CountSplitSparse(g *graph.Graph, base tensor.Decomposition, parallelism int) (uint64, error) {
	n := g.N()
	if n == 0 || g.M() == 0 {
		return 0, nil
	}
	dc, _ := base.ForSize(n)
	q := ff.NextPrime(uint64(n)*uint64(n)*uint64(n) + 1)
	f, err := ff.New(q)
	if err != nil {
		return 0, fmt.Errorf("triangles: %w", err)
	}
	ell := yates.DefaultEll(dc.R0, dc.T, 2*g.M())
	triple, err := newSparseTriple(f, adjacencyEntries(g, dc), dc, ell)
	if err != nil {
		return 0, fmt.Errorf("triangles: %w", err)
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	nParts := triple.a.NumParts()
	if parallelism > nParts {
		parallelism = nParts
	}
	partials := make([]uint64, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := uint64(0)
			for outer := w; outer < nParts; outer += parallelism {
				pa := triple.a.Part(outer)
				pb := triple.b.Part(outer)
				pc := triple.c.Part(outer)
				for v := range pa {
					acc = f.Add(acc, f.Mul(pa[v], f.Mul(pb[v], pc[v])))
				}
			}
			partials[w] = acc
		}(w)
	}
	wg.Wait()
	tr := uint64(0)
	for _, v := range partials {
		tr = f.Add(tr, v)
	}
	return tr / 6, nil
}

// Problem is the Camelot triangle-counting problem of Theorem 3: the
// proof polynomial P(z) = Σ_{r'} A_{r'}(z) B_{r'}(z) C_{r'}(z) over the
// §3.3 polynomial extension, with proof size O(R/m) and per-node
// evaluation time Õ(m + R/m).
type Problem struct {
	g      *graph.Graph
	dc     tensor.Decomposition
	ell    int
	nParts int
}

var _ core.Problem = (*Problem)(nil)

// NewProblem builds the Camelot triangle problem over the given base
// decomposition.
func NewProblem(g *graph.Graph, base tensor.Decomposition) (*Problem, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("triangles: empty graph")
	}
	dc, _ := base.ForSize(g.N())
	ell := yates.DefaultEll(dc.R0, dc.T, 2*g.M())
	nParts := 1
	for i := 0; i < dc.T-ell; i++ {
		nParts *= dc.R0
	}
	return &Problem{g: g, dc: dc, ell: ell, nParts: nParts}, nil
}

// Name implements core.Problem.
func (p *Problem) Name() string {
	return fmt.Sprintf("count-triangles(n=%d,m=%d)", p.g.N(), p.g.M())
}

// Width implements core.Problem.
func (p *Problem) Width() int { return 1 }

// Degree implements core.Problem: each part polynomial has degree at
// most R/m'-1, so P has degree at most 3(R/m'-1).
func (p *Problem) Degree() int { return 3 * (p.nParts - 1) }

// MinModulus implements core.Problem: big enough for the part-polynomial
// grid, raised to the word-sized floor every problem shares
// (crt.FloorModulus), at which one prime covers the n³ trace bound for
// any n below 2^20.
func (p *Problem) MinModulus() uint64 {
	return crt.FloorModulus(uint64(3*p.nParts + 2))
}

// NumPrimes implements core.Problem: the trace is at most n³.
func (p *Problem) NumPrimes() int {
	n := big.NewInt(int64(p.g.N()))
	bound := new(big.Int).Exp(n, big.NewInt(3), nil)
	return crt.PrimesFor(bound.BitLen(), p.MinModulus())
}

// Evaluate implements core.Problem: P(z0) mod q. It rebuilds the
// per-prime edge reduction per call — the compiled plan is the
// amortized path.
func (p *Problem) Evaluate(q, z0 uint64) ([]uint64, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	triple, err := newSparseTriple(f, adjacencyEntries(p.g, p.dc), p.dc, p.ell)
	if err != nil {
		return nil, err
	}
	e := triple.evaluator()
	return []uint64{e.atBasis(e.ea.Basis(z0))}, nil
}

var _ core.CompiledProblem = (*Problem)(nil)

// Compile implements plan.Compiler: the per-prime sparse triple (edge
// reduction, digit tables, compiled Kronecker kernels) is built once and
// only read afterwards. Where the group tensor pays (tensorPlan) the plan
// contracts it, with T built here; elsewhere each block runs Evaluate's
// per-point block product. Either way the plan must match Evaluate bit
// for bit, which the differential tests pin and verification checks.
func (p *Problem) Compile(f ff.Field) (plan.Plan, error) {
	triple, err := newSparseTriple(f, adjacencyEntries(p.g, p.dc), p.dc, p.ell)
	if err != nil {
		return nil, err
	}
	if gt := triple.tensorPlan(); gt != nil {
		return gt, nil
	}
	return triple, nil
}

// EvaluateBlock implements plan.Plan for the block product. The
// evaluator is built per call, not kept in the plan: it carries the
// scatter and Yates scratch that makes a point allocation-free, and plans
// must stay safe for concurrent EvaluateBlock calls. Its construction
// (three s^ℓ-word scatter buffers) is amortized over the block, and so
// are the bases' field inversions: the block's Φ come from one sweep, not
// a Basis per point.
func (tr *sparseTriple) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	e := tr.evaluator()
	vals := make([]uint64, len(xs))
	e.ea.SweepBasis(xs, func(i int, phi []uint64) {
		vals[i] = e.atBasis(phi)
	})
	return plan.Rows(vals, 1), nil
}

// Recover extracts the triangle count: Σ_{z0=1}^{R/m'} P(z0) equals
// trace(A³) per modulus (paper eq. (21)), then CRT and division by 6.
func (p *Problem) Recover(proof *core.Proof) (*big.Int, error) {
	x, err := crt.Reconstruct(proof.SumRanges(0, 1, uint64(p.nParts)+1), proof.Primes)
	if err != nil {
		return nil, fmt.Errorf("triangles: %w", err)
	}
	quo, rem := new(big.Int).QuoRem(x, big.NewInt(6), new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("triangles: trace %v not divisible by 6 — proof inconsistent", x)
	}
	return quo, nil
}

// --- Theorem 5: the Alon–Yuster–Zwick bound ---------------------------------

// OmegaStrassen is the practical matrix-multiplication exponent of this
// codebase (Strassen), used to place the AYZ degree threshold.
const OmegaStrassen = 2.8073549220576042 // log2 7

// CountAYZ counts triangles with the Theorem 5 design: vertices are
// split at Δ = m^{(ω-1)/(ω+1)}; triangles entirely within the high-degree
// core are counted with the split/sparse dense method on the induced
// subgraph, and triangles touching a low-degree vertex are counted by
// Δ parallel "label nodes", each doing Õ(m) work.
func CountAYZ(g *graph.Graph, base tensor.Decomposition, parallelism int) (uint64, error) {
	m := g.M()
	if m == 0 {
		return 0, nil
	}
	threshold := delta(m)
	n := g.N()
	low := make([]bool, n)
	var high []int
	for v := 0; v < n; v++ {
		if g.Degree(v) <= threshold {
			low[v] = true
		} else {
			high = append(high, v)
		}
	}
	// High-core triangles: induced subgraph, dense split/sparse count.
	highCount := uint64(0)
	if len(high) >= 3 {
		idx := make(map[int]int, len(high))
		for i, v := range high {
			idx[v] = i
		}
		hg := graph.New(len(high))
		for _, e := range g.Edges() {
			iu, uok := idx[e[0]]
			iv, vok := idx[e[1]]
			if uok && vok {
				hg.AddEdge(iu, iv)
			}
		}
		var err error
		highCount, err = CountSplitSparse(hg, base, parallelism)
		if err != nil {
			return 0, fmt.Errorf("triangles: AYZ high part: %w", err)
		}
	}
	// Low-touching triangles: for each low vertex x, label its incident
	// edge ends 1..deg(x) <= Δ; label-node u enumerates pairs (u-th
	// neighbor, later neighbors). A triangle is counted at its minimum
	// low-degree vertex only.
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > threshold {
		parallelism = threshold
	}
	neighbors := make([][]int, n)
	for v := 0; v < n; v++ {
		if low[v] {
			neighbors[v] = g.Neighbors(v).Elements()
			sort.Ints(neighbors[v])
		}
	}
	partials := make([]uint64, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := uint64(0)
			for u := w; u < threshold; u += parallelism {
				for x := 0; x < n; x++ {
					if !low[x] || u >= len(neighbors[x]) {
						continue
					}
					y := neighbors[x][u]
					for _, z := range neighbors[x][u+1:] {
						if !g.HasEdge(y, z) {
							continue
						}
						// Count at the minimum low-degree vertex of {x,y,z}.
						if (low[y] && y < x) || (low[z] && z < x) {
							continue
						}
						acc++
					}
				}
			}
			partials[w] = acc
		}(w)
	}
	wg.Wait()
	lowCount := uint64(0)
	for _, v := range partials {
		lowCount += v
	}
	return highCount + lowCount, nil
}

// delta is the AYZ degree threshold Δ = ⌈m^{(ω-1)/(ω+1)}⌉ for m >= 1
// edges: vertices of degree at most Δ are low.
func delta(m int) int {
	return int(math.Ceil(math.Pow(float64(m), (OmegaStrassen-1)/(OmegaStrassen+1))))
}
