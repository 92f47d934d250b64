// Package plan is the shared two-phase evaluation contract of the
// problem zoo: a problem *compiles* against one prime field — hoisting
// every evaluation-point-independent artifact (mask tables, suffix
// plans, Lagrange grids, interpolated columns, zeta/Yates layouts) into
// a Plan — and the framework then *evaluates* the plan at many points.
// The split matters because the Camelot protocol evaluates each proof
// polynomial at e = d+1+2f points per prime: setup paid once per
// (problem, prime) instead of once per point is the difference between
// a loop over Evaluate and the block fast path.
//
// A run compiles once per prime (core.Planner) and shares the plan
// across the chunks of one node's range, across nodes, and across repair
// rounds — so a Plan must be safe for concurrent EvaluateBlock calls:
// all per-call scratch (evaluator state, walk vectors, coefficient
// buffers) lives on the call stack, never on the Plan.
package plan

import "camelot/internal/ff"

// Compiler is the compile half of the contract: binding a problem to
// one prime field produces the field's reusable Plan. Compile must be
// deterministic in the field — two compiles against the same prime
// yield plans with identical EvaluateBlock results — and cheap enough
// to pay once per (problem, prime); everything per-point stays in the
// Plan's EvaluateBlock.
type Compiler interface {
	Compile(f ff.Field) (Plan, error)
}

// Plan is a compiled evaluator for one (problem, prime) pair.
type Plan interface {
	// EvaluateBlock computes the proof polynomials at every point of xs,
	// returning one row (P_0(x), ..., P_{Width-1}(x)) per point. Results
	// must be identical to the problem's point-wise Evaluate, which the
	// verifier runs. Where Evaluate is a formula of its own, a divergent
	// plan fails verification; where Evaluate is the plan at one point
	// (conv3sum, exact cover, chromatic, tutte), a wrong formula is wrong
	// on both sides and verification cannot see it. What holds every kind
	// is camelot's TestPlansMatchEvaluate: blocks equal Evaluate bit for
	// bit over shared points, primes and cuts, and concurrent calls on one
	// plan agree. The xs slice is reused between calls and must not be
	// retained. Implementations must be safe for concurrent calls.
	EvaluateBlock(xs []uint64) ([][]uint64, error)
}

// Rows cuts vals into the rows an EvaluateBlock returns, width values
// each: one backing slice for the whole block instead of one per point.
func Rows(vals []uint64, width int) [][]uint64 {
	rows := make([][]uint64, len(vals)/width)
	for i := range rows {
		rows[i] = vals[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}
