package tutte

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"camelot/internal/core"
	"camelot/internal/graph"
	"camelot/internal/interp"
)

// Result carries the recovered polynomials of a full Tutte computation.
type Result struct {
	// Z[c][j] is the coefficient of t^c r^j in the random-cluster
	// polynomial Z_G(t, r) = Σ_F t^{c(F)} r^{|F|}.
	Z [][]*big.Int
	// T[a][b] is the coefficient of x^a y^b in the Tutte polynomial.
	T [][]*big.Int
	// Reports holds one framework report per Fortuin–Kasteleyn line
	// r = 1..m+1.
	Reports []*core.Report
}

// RunLine executes one Fortuin–Kasteleyn line's Camelot run — the seam
// through which the session layer submits lines as concurrent cluster
// jobs. It must be non-nil.
type RunLine func(ctx context.Context, p *Problem) (*core.Proof, *core.Report, error)

// ComputeLines runs the full Theorem 7 pipeline: one Camelot run per
// integer r = 1..m+1 (each a width-(n+1) proof over the t grid) through
// line, up to concurrency of them in flight at once, then exact bivariate
// interpolation of Z and the eq. (34) change of variables to T_G(x, y).
// The result is deterministic regardless of concurrency: lines are
// independent Camelot runs, the value grid is indexed by r, and reports
// keep FK-line order.
func ComputeLines(ctx context.Context, mg *graph.Multigraph, line RunLine, concurrency int) (*Result, error) {
	n := mg.N()
	m := mg.M()
	if concurrency <= 0 {
		concurrency = 1
	}
	if concurrency > m+1 {
		concurrency = m + 1
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	grid := make([][]*big.Int, m+1) // grid[rIdx][tIdx]
	reports := make([]*core.Report, m+1)
	errs := make([]error, m+1)
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for ri := 0; ri <= m; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := runCtx.Err(); err != nil {
				errs[ri] = err
				return
			}
			p, err := NewProblem(mg, uint64(ri+1))
			if err != nil {
				errs[ri] = err
				cancel()
				return
			}
			proof, rep, err := line(runCtx, p)
			if err != nil {
				errs[ri] = fmt.Errorf("tutte: r=%d: %w", ri+1, err)
				cancel()
				return
			}
			reports[ri] = rep
			grid[ri], err = p.Values(proof)
			if err != nil {
				errs[ri] = err
				cancel()
			}
		}(ri)
	}
	wg.Wait()
	// Surface the root cause, not the cancellations it fanned out.
	var firstErr error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res := &Result{Reports: reports}
	z, err := InterpolateZ(grid, n, m)
	if err != nil {
		return nil, err
	}
	res.Z = z
	t, err := TutteFromZ(z, n, mg.Components(nil))
	if err != nil {
		return nil, err
	}
	res.T = t
	return res, nil
}

// InterpolateZ turns the value grid (rows r = 1..m+1, columns
// t = 1..n+1) into the coefficient matrix z[c][j] of Z_G.
func InterpolateZ(grid [][]*big.Int, n, m int) ([][]*big.Int, error) {
	tPoints := make([]int64, n+1)
	for i := range tPoints {
		tPoints[i] = int64(i + 1)
	}
	rPoints := make([]int64, m+1)
	for i := range rPoints {
		rPoints[i] = int64(i + 1)
	}
	// First in t per r-line: zeta[rIdx][c].
	zeta := make([][]*big.Int, m+1)
	for ri := 0; ri <= m; ri++ {
		coeffs, err := interp.LagrangeInt(tPoints, grid[ri])
		if err != nil {
			return nil, fmt.Errorf("tutte: interpolating t-line r=%d: %w", ri+1, err)
		}
		zeta[ri] = coeffs
	}
	// Then in r per t-degree.
	z := make([][]*big.Int, n+1)
	for c := 0; c <= n; c++ {
		vals := make([]*big.Int, m+1)
		for ri := 0; ri <= m; ri++ {
			vals[ri] = zeta[ri][c]
		}
		coeffs, err := interp.LagrangeInt(rPoints, vals)
		if err != nil {
			return nil, fmt.Errorf("tutte: interpolating r-line c=%d: %w", c, err)
		}
		z[c] = coeffs
	}
	return z, nil
}

// TutteFromZ applies eq. (34): with u = x-1, v = y-1,
// Z(uv, v) = u^{c0} v^n · T, so t_{uv}[c-c0][c+j-n] = z[c][j] directly
// (zero entries must appear outside that cone), followed by the binomial
// change back to x, y coordinates.
func TutteFromZ(z [][]*big.Int, n, c0 int) ([][]*big.Int, error) {
	maxU, maxV := 0, 0
	for c := range z {
		for j := range z[c] {
			if z[c][j].Sign() == 0 {
				continue
			}
			if c < c0 || c+j < n {
				return nil, fmt.Errorf("tutte: z[%d][%d] = %v violates the c >= c(E), c+j >= n cone", c, j, z[c][j])
			}
			if c-c0 > maxU {
				maxU = c - c0
			}
			if c+j-n > maxV {
				maxV = c + j - n
			}
		}
	}
	w := make([][]*big.Int, maxU+1)
	for a := range w {
		w[a] = make([]*big.Int, maxV+1)
		for b := range w[a] {
			w[a][b] = big.NewInt(0)
		}
	}
	for c := range z {
		for j := range z[c] {
			if z[c][j].Sign() != 0 {
				w[c-c0][c+j-n].Add(w[c-c0][c+j-n], z[c][j])
			}
		}
	}
	// T(x,y) = Σ w[a][b] (x-1)^a (y-1)^b: expand binomially.
	t := make([][]*big.Int, maxU+1)
	for a := range t {
		t[a] = make([]*big.Int, maxV+1)
		for b := range t[a] {
			t[a][b] = big.NewInt(0)
		}
	}
	for a := 0; a <= maxU; a++ {
		for b := 0; b <= maxV; b++ {
			if w[a][b].Sign() == 0 {
				continue
			}
			for i := 0; i <= a; i++ {
				bi := new(big.Int).Binomial(int64(a), int64(i))
				if (a-i)%2 == 1 {
					bi.Neg(bi)
				}
				for j := 0; j <= b; j++ {
					bj := new(big.Int).Binomial(int64(b), int64(j))
					if (b-j)%2 == 1 {
						bj.Neg(bj)
					}
					term := new(big.Int).Mul(w[a][b], bi)
					term.Mul(term, bj)
					t[i][j].Add(t[i][j], term)
				}
			}
		}
	}
	return t, nil
}

// Eval evaluates a bivariate coefficient matrix at integer (x, y).
func Eval(coeffs [][]*big.Int, x, y int64) *big.Int {
	total := new(big.Int)
	bx, by := big.NewInt(x), big.NewInt(y)
	xa := big.NewInt(1)
	for a := range coeffs {
		// Horner in y per x-power.
		row := new(big.Int)
		for b := len(coeffs[a]) - 1; b >= 0; b-- {
			row.Mul(row, by)
			row.Add(row, coeffs[a][b])
		}
		row.Mul(row, xa)
		total.Add(total, row)
		xa = new(big.Int).Mul(xa, bx)
	}
	return total
}

// --- Sequential baselines ----------------------------------------------------

// PottsBrute evaluates Z_G(t, r) by enumerating all t^n state assignments
// (Fortuin–Kasteleyn form): the integer-grid ground truth.
func PottsBrute(mg *graph.Multigraph, t int, r int64) *big.Int {
	n := mg.N()
	total := big.NewInt(0)
	sigma := make([]int, n)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			term := big.NewInt(1)
			factor := big.NewInt(1 + r)
			for _, e := range mg.Edges() {
				if sigma[e[0]] == sigma[e[1]] {
					term.Mul(term, factor)
				}
			}
			total.Add(total, term)
			return
		}
		for c := 0; c < t; c++ {
			sigma[v] = c
			rec(v + 1)
		}
	}
	rec(0)
	return total
}

// ZSubsets evaluates Z_G(t, r) = Σ_{F⊆E} t^{c(F)} r^{|F|} by subset
// expansion: exponential in m, exact, independent of the FK identity.
func ZSubsets(mg *graph.Multigraph, t, r int64) *big.Int {
	m := mg.M()
	total := big.NewInt(0)
	include := make([]bool, m)
	bt, br := big.NewInt(t), big.NewInt(r)
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		size := 0
		for i := 0; i < m; i++ {
			include[i] = mask&(1<<uint(i)) != 0
			if include[i] {
				size++
			}
		}
		comps := mg.Components(include)
		term := new(big.Int).Exp(bt, big.NewInt(int64(comps)), nil)
		term.Mul(term, new(big.Int).Exp(br, big.NewInt(int64(size)), nil))
		total.Add(total, term)
	}
	return total
}

// DeletionContraction computes the Tutte polynomial coefficient matrix by
// the classical recursion: loops contribute y, bridges x, other edges
// T(G-e) + T(G/e).
func DeletionContraction(mg *graph.Multigraph) [][]*big.Int {
	return tutteRec(mg.N(), append([][2]int(nil), mg.Edges()...))
}

func tutteRec(n int, edges [][2]int) [][]*big.Int {
	if len(edges) == 0 {
		return [][]*big.Int{{big.NewInt(1)}}
	}
	e := edges[len(edges)-1]
	rest := edges[:len(edges)-1]
	if e[0] == e[1] {
		// Loop: multiply by y.
		return shift(tutteRec(n, rest), 0, 1)
	}
	if isBridge(n, edges, len(edges)-1) {
		// Bridge: x · T(G/e).
		return shift(tutteRec(n-1, contract(rest, e)), 1, 0)
	}
	del := tutteRec(n, rest)
	con := tutteRec(n-1, contract(rest, e))
	return add(del, con)
}

// contract merges the higher endpoint of e into the lower one and
// relabels vertices above the removed one.
func contract(edges [][2]int, e [2]int) [][2]int {
	lo, hi := e[0], e[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	relabel := func(v int) int {
		switch {
		case v == hi:
			return lo
		case v > hi:
			return v - 1
		}
		return v
	}
	out := make([][2]int, len(edges))
	for i, k := range edges {
		out[i] = [2]int{relabel(k[0]), relabel(k[1])}
	}
	return out
}

// isBridge reports whether edge idx disconnects its endpoints.
func isBridge(n int, edges [][2]int, idx int) bool {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, e := range edges {
		if i == idx {
			continue
		}
		parent[find(e[0])] = find(e[1])
	}
	return find(edges[idx][0]) != find(edges[idx][1])
}

func shift(p [][]*big.Int, dx, dy int) [][]*big.Int {
	out := make([][]*big.Int, len(p)+dx)
	width := 0
	for _, row := range p {
		if len(row) > width {
			width = len(row)
		}
	}
	for a := range out {
		out[a] = make([]*big.Int, width+dy)
		for b := range out[a] {
			out[a][b] = big.NewInt(0)
		}
	}
	for a, row := range p {
		for b, c := range row {
			out[a+dx][b+dy].Set(c)
		}
	}
	return out
}

func add(p, q [][]*big.Int) [][]*big.Int {
	rows := len(p)
	if len(q) > rows {
		rows = len(q)
	}
	width := 0
	for _, row := range p {
		if len(row) > width {
			width = len(row)
		}
	}
	for _, row := range q {
		if len(row) > width {
			width = len(row)
		}
	}
	out := make([][]*big.Int, rows)
	for a := range out {
		out[a] = make([]*big.Int, width)
		for b := range out[a] {
			out[a][b] = big.NewInt(0)
			if a < len(p) && b < len(p[a]) {
				out[a][b].Add(out[a][b], p[a][b])
			}
			if a < len(q) && b < len(q[a]) {
				out[a][b].Add(out[a][b], q[a][b])
			}
		}
	}
	return out
}
