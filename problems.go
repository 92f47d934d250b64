package camelot

import (
	"context"
	"math/big"

	"camelot/internal/chromatic"
	"camelot/internal/cliques"
	"camelot/internal/cnfsat"
	"camelot/internal/conv3sum"
	"camelot/internal/core"
	"camelot/internal/csp"
	"camelot/internal/hamilton"
	"camelot/internal/orthvec"
	"camelot/internal/permanent"
	"camelot/internal/setcover"
	"camelot/internal/tensor"
	"camelot/internal/triangles"
	"camelot/internal/tutte"
)

// RunProblem executes the full Camelot protocol — distributed proof
// preparation, per-node Gao decoding with failed-node identification,
// and randomized verification — for any Problem. Most callers use the
// problem-specific functions below instead; all of them run on the
// shared default cluster (see NewCluster for the session API): the
// classic synchronous API is submit + wait on a copy of that cluster's
// record, so per-call cluster-scoped options (nodes, transport, an
// explicit parallelism bound) override the default cluster's for this
// run only.
func RunProblem(ctx context.Context, p Problem, opts ...Option) (*Proof, *Report, error) {
	cl := DefaultCluster()
	return cl.start(ctx, p, resolve(cl.base, opts)).Wait(ctx)
}

// VerifyProof spot-checks a proof against the input with the given
// number of trials — the Merlin–Arthur mode (paper §1.1): Arthur accepts
// a correct proof always and a forged one with probability at most
// (d/q)^trials, spending one node's work per trial.
func VerifyProof(p Problem, proof *Proof, trials int, seed int64) (bool, error) {
	return core.VerifyProof(p, proof, trials, seed)
}

// VerifyProofContext is VerifyProof with cancellation: the check aborts
// between trial/modulus pairs once ctx is done, making multi-trial
// verification of large proofs as cancellable as every other stage.
func VerifyProofContext(ctx context.Context, p Problem, proof *Proof, trials int, seed int64) (bool, error) {
	return core.VerifyProofContext(ctx, p, proof, trials, seed)
}

// VerifyProofBatch is the batched ingest check: one random-linear-
// combination fold plus a single Horner evaluation per prime verifies
// that the proof's stored codeword evaluations are exactly the
// evaluations of its coefficient vectors — without touching the problem
// instance at all. It is the cheap structural gate for accepting proofs
// wholesale (a proof service's ingest path); VerifyProof remains the
// audit-grade check tying the proof to the input. One call wrongly
// accepts an inconsistent proof with probability at most
// (Width-1 + max(d, e-1))/q per prime; see core.VerifyProofBatch for
// the argument.
func VerifyProofBatch(proof *Proof, seed int64) (bool, error) {
	return core.VerifyProofBatch(proof, seed)
}

// VerifyProofBatchContext is VerifyProofBatch with cancellation,
// observed between primes.
func VerifyProofBatchContext(ctx context.Context, proof *Proof, seed int64) (bool, error) {
	return core.VerifyProofBatchContext(ctx, proof, seed)
}

// oneShot is the run-and-recover body of every facade function below:
// oneShot(ctx, opts, answer)(pkg.NewProblem(...)) runs what the
// constructor returned on the default cluster and reads the answer out
// of the decoded proof.
func oneShot[P Problem, A any](ctx context.Context, opts []Option,
	answer func(P, *Proof) (A, error)) func(P, error) (A, *Report, error) {
	return func(p P, err error) (A, *Report, error) {
		var none A
		if err != nil {
			return none, nil, err
		}
		proof, rep, err := RunProblem(ctx, p, opts...)
		if err != nil {
			return none, rep, err
		}
		a, err := answer(p, proof)
		return a, rep, err
	}
}

// CountCliques counts the k-cliques of g (k divisible by 6) with the
// Theorem 1 Camelot algorithm: proof size and per-node time O(n^{ωk/6}),
// matching the best sequential total.
func CountCliques(ctx context.Context, g *Graph, k int, opts ...Option) (*big.Int, *Report, error) {
	return oneShot(ctx, opts, CountingProblem.Count)(NewCliqueProblem(g, k))
}

// CountCliquesSequential counts k-cliques with the Nešetřil–Poljak
// baseline (no proof, no distribution) for comparison.
func CountCliquesSequential(g *Graph, k int) (*big.Int, error) {
	return cliques.CountNesetrilPoljak(g.g, k)
}

// CountTriangles counts the triangles of g with the Theorem 3 Camelot
// algorithm: proof size O(n^ω/m), per-node time Õ(m).
func CountTriangles(ctx context.Context, g *Graph, opts ...Option) (*big.Int, *Report, error) {
	return oneShot(ctx, opts, CountingProblem.Count)(NewTriangleProblem(g))
}

// ChromaticPolynomial computes the chromatic polynomial of g with the
// Theorem 6 Camelot algorithm (proof size and time O*(2^{n/2})),
// returning the integer coefficients c_0..c_n of χ_G(t) = Σ c_k t^k.
func ChromaticPolynomial(ctx context.Context, g *Graph, opts ...Option) ([]*big.Int, *Report, error) {
	return oneShot(ctx, opts, (*chromatic.Problem).Coefficients)(chromatic.NewProblem(g.g))
}

// TutteResult carries the recovered Tutte and random-cluster polynomials.
type TutteResult = tutte.Result

// TuttePolynomial computes the Tutte polynomial of a multigraph with the
// Theorem 7 Camelot algorithm: proof size O*(2^{n/3}), per-node time
// O*(2^{ωn/3}), one run per Fortuin–Kasteleyn line r = 1..m+1. The m+1
// lines are submitted as concurrent jobs on the shared default cluster;
// the result does not depend on how many run at once because lines are
// independent runs.
func TuttePolynomial(ctx context.Context, mg *Multigraph, opts ...Option) (*TutteResult, error) {
	cl := DefaultCluster()
	copts := resolve(cl.base, opts)
	if copts.MaxParallelism > 0 {
		// An explicit parallelism bound must hold across the whole
		// computation, not per line: the default cluster's pool has its
		// own width and a private pool per line would multiply the
		// bound by m+1 concurrent lines. A transient cluster sized
		// to the bound keeps every line on one pool of exactly that
		// width.
		cl = NewCluster(WithMaxParallelism(copts.MaxParallelism))
		defer cl.Close()
		copts = resolve(cl.base, opts)
	}
	line := func(ctx context.Context, p *tutte.Problem) (*core.Proof, *core.Report, error) {
		return cl.start(ctx, p, copts).Wait(ctx)
	}
	// In-flight lines are capped at the executing pool's width, not
	// m+1: a line allocates its full share buffers the moment its run
	// starts — before any task reaches the pool — so admitting every
	// line at once makes peak memory scale with the edge count while
	// the pool can only progress width lines' work anyway.
	return tutte.ComputeLines(ctx, mg.mg, line, cl.base.Pool.Width())
}

// EvalTutte evaluates a recovered Tutte coefficient matrix at (x, y).
func EvalTutte(coeffs [][]*big.Int, x, y int64) *big.Int { return tutte.Eval(coeffs, x, y) }

// CNFFormula is a CNF formula: literal +v is variable v, -v its negation.
type CNFFormula = cnfsat.Formula

// CountCNFSolutions counts satisfying assignments with the Theorem 8(1)
// Camelot algorithm: proof size and time O*(2^{v/2}).
func CountCNFSolutions(ctx context.Context, f *CNFFormula, opts ...Option) (*big.Int, *Report, error) {
	return oneShot(ctx, opts, CountingProblem.Count)(NewCNFProblem(f))
}

// Permanent computes the permanent of an integer matrix with the
// Theorem 8(2) Camelot algorithm: proof size and time O*(2^{n/2})
// against Ryser's O*(2^n).
func Permanent(ctx context.Context, a [][]int64, opts ...Option) (*big.Int, *Report, error) {
	return oneShot(ctx, opts, CountingProblem.Count)(NewPermanentProblem(a))
}

// CountHamiltonianCycles counts the (undirected) Hamiltonian cycles of g
// with the Theorem 8(3) Camelot algorithm: proof size and time
// O*(2^{n/2}).
func CountHamiltonianCycles(ctx context.Context, g *Graph, opts ...Option) (*big.Int, *Report, error) {
	return oneShot(ctx, opts, CountingProblem.Count)(NewHamiltonianCycleProblem(g))
}

// CountHamiltonianPaths counts the (undirected) Hamiltonian paths of g —
// the Appendix A.5 closing remark — with proof size and time O*(2^{n/2}).
func CountHamiltonianPaths(ctx context.Context, g *Graph, opts ...Option) (*big.Int, *Report, error) {
	return oneShot(ctx, opts, (*hamilton.PathProblem).RecoverUndirected)(hamilton.NewPathProblem(g.g))
}

// CountSetCovers counts ordered t-tuples from the family (sets given as
// bit masks over an n-element universe) whose union is the universe,
// with the Theorem 9 Camelot algorithm: proof size and time O*(2^{n/2}).
func CountSetCovers(ctx context.Context, family []uint64, n, t int, opts ...Option) (*big.Int, *Report, error) {
	return oneShot(ctx, opts, (*setcover.CoverProblem).RecoverCovers)(setcover.NewCoverProblem(family, n, t))
}

// CountSetPartitions counts the unordered partitions of the universe
// into t sets from the family, with the Theorem 10 Camelot algorithm.
func CountSetPartitions(ctx context.Context, family []uint64, n, t int, opts ...Option) (*big.Int, *Report, error) {
	return oneShot(ctx, opts, (*setcover.ExactCoverProblem).RecoverPartitions)(setcover.NewExactCoverProblem(family, n, t))
}

// boolMatrices wraps the row-major 0/1 inputs of the vector problems.
func boolMatrices(n, t int, a, b []uint8) (am, bm *orthvec.BoolMatrix, err error) {
	if am, err = orthvec.NewBoolMatrix(n, t, a); err != nil {
		return nil, nil, err
	}
	bm, err = orthvec.NewBoolMatrix(n, t, b)
	return am, bm, err
}

// CountOrthogonalPairs returns, for each row of a, how many rows of b
// are orthogonal to it (Theorem 11(1): proof size and time Õ(nt)).
// Matrices are n×t row-major 0/1.
func CountOrthogonalPairs(ctx context.Context, n, t int, a, b []uint8, opts ...Option) ([]int64, *Report, error) {
	am, bm, err := boolMatrices(n, t, a, b)
	if err != nil {
		return nil, nil, err
	}
	return oneShot(ctx, opts, (*orthvec.OVProblem).Counts)(orthvec.NewOVProblem(am, bm))
}

// HammingDistribution returns counts[i][h] = number of rows of b at
// Hamming distance h from row i of a (Theorem 11(2): Õ(nt²)).
func HammingDistribution(ctx context.Context, n, t int, a, b []uint8, opts ...Option) ([][]int64, *Report, error) {
	am, bm, err := boolMatrices(n, t, a, b)
	if err != nil {
		return nil, nil, err
	}
	return oneShot(ctx, opts, (*orthvec.HammingProblem).Distribution)(orthvec.NewHammingProblem(am, bm))
}

// Convolution3SUM counts the witnesses of A[i]+A[ℓ] = A[i+ℓ] per index
// i in [1, n/2] (Theorem 11(3): Õ(nt²)). The array is 1-based
// conceptually; a[0] is A[1].
func Convolution3SUM(ctx context.Context, a []uint64, bits int, opts ...Option) ([]int64, *Report, error) {
	return oneShot(ctx, opts, (*conv3sum.Problem).Counts)(conv3sum.NewProblem(a, bits))
}

// CSPConstraint is a binary constraint with a σ×σ satisfaction table.
type CSPConstraint = csp.Constraint

// CSPSystem is a 2-CSP over n variables (n divisible by 6), alphabet σ.
type CSPSystem = csp.System

// CSPDistribution returns N_k, the number of assignments satisfying
// exactly k constraints, for k = 0..m (Theorem 12: proof size and time
// O*(σ^{ωn/6})).
func CSPDistribution(ctx context.Context, sys *CSPSystem, opts ...Option) ([]*big.Int, *Report, error) {
	return oneShot(ctx, opts, (*csp.Problem).Distribution)(csp.NewProblem(sys, tensor.Strassen()))
}

// --- Counting problems for the session API ------------------------------------

// CountingProblem pairs a Problem with its integer-count recovery, so
// counting workloads can be submitted to a Cluster asynchronously and
// their answers recovered from the job's proof:
//
//	job := cluster.Submit(ctx, p)
//	proof, _, err := job.Wait(ctx)
//	count, err := p.Count(proof)
type CountingProblem interface {
	Problem
	// Count recovers the integer answer from a decoded proof.
	Count(proof *Proof) (*big.Int, error)
}

// countingProblem adapts an internal problem + recovery closure. It
// embeds CompiledProblem, not Problem: the bare interface would hide
// Compile from the planner's type assertion, silently downgrading every
// spec workload to pointwise evaluation.
type countingProblem struct {
	core.CompiledProblem
	count func(*core.Proof) (*big.Int, error)
	// text, when non-nil, renders an answer that is more than the count
	// (see Workload.Answer).
	text func(*core.Proof) (string, error)
}

func (p countingProblem) Count(proof *Proof) (*big.Int, error) { return p.count(proof) }

// counting pairs what an internal constructor returned with the method
// that recovers its count: counting(recover)(pkg.NewProblem(...)).
func counting[P core.CompiledProblem](count func(P, *core.Proof) (*big.Int, error)) func(P, error) (CountingProblem, error) {
	return func(p P, err error) (CountingProblem, error) {
		if err != nil {
			return nil, err
		}
		return countingProblem{CompiledProblem: p, count: func(proof *core.Proof) (*big.Int, error) { return count(p, proof) }}, nil
	}
}

// NewTriangleProblem builds the Theorem 3 triangle-counting problem for
// cluster submission.
func NewTriangleProblem(g *Graph) (CountingProblem, error) {
	return counting((*triangles.Problem).Recover)(triangles.NewProblem(g.g, tensor.Strassen()))
}

// NewCliqueProblem builds the Theorem 1 k-clique problem (k divisible
// by 6) for cluster submission.
func NewCliqueProblem(g *Graph, k int) (CountingProblem, error) {
	return counting((*cliques.Problem).Recover)(cliques.NewProblem(g.g, k, tensor.Strassen()))
}

// NewPermanentProblem builds the Theorem 8(2) permanent problem for
// cluster submission.
func NewPermanentProblem(a [][]int64) (CountingProblem, error) {
	return counting((*permanent.Problem).Recover)(permanent.NewProblem(a))
}

// NewCNFProblem builds the Theorem 8(1) #CNFSAT problem for cluster
// submission.
func NewCNFProblem(f *CNFFormula) (CountingProblem, error) {
	return counting((*cnfsat.Problem).CountSolutions)(cnfsat.NewProblem(f))
}

// NewHamiltonianCycleProblem builds the Theorem 8(3) Hamiltonian cycle
// problem for cluster submission.
func NewHamiltonianCycleProblem(g *Graph) (CountingProblem, error) {
	return counting((*hamilton.Problem).RecoverUndirected)(hamilton.NewProblem(g.g))
}
