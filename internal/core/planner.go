package core

// The evaluation seam: how a problem's point ranges get evaluated. A
// Planner compiles the problem once per prime into a plan.Plan and
// memoizes it for as long as the planner lives — one engine run (every
// chunk task, node and repair round shares the compile) or one ctrl
// worker's assignment manifest. evaluateRangeInto is the single block
// loop that drives a plan over a range.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"camelot/internal/ff"
	"camelot/internal/plan"
)

// CompiledProblem is a Problem whose per-prime setup compiles into a
// reusable plan.Plan — the extension point for block evaluation, and
// what every in-tree problem implements. A Problem without Compile is
// evaluated through a pointwise plan over its Evaluate.
type CompiledProblem interface {
	Problem
	plan.Compiler
}

// Planner memoizes a problem's compiled plans per prime. Safe for
// concurrent use (the engine's chunk tasks call For from every pool
// worker); compilation is single-flight per prime.
type Planner struct {
	p Problem

	mu    sync.Mutex
	plans map[uint64]*planEntry
}

// planEntry is one prime's single-flight slot: the first For compiles
// under the once, every later For reuses the result (compile errors are
// deterministic in the problem geometry, so they memoize too).
type planEntry struct {
	once sync.Once
	plan plan.Plan
	err  error
}

// NewPlanner returns an empty planner for p.
func NewPlanner(p Problem) *Planner {
	return &Planner{p: p, plans: make(map[uint64]*planEntry)}
}

// Problem returns the planner's underlying problem.
func (pl *Planner) Problem() Problem { return pl.p }

// For returns the plan for prime q, compiling it on first use.
func (pl *Planner) For(q uint64) (plan.Plan, error) {
	pl.mu.Lock()
	e, ok := pl.plans[q]
	if !ok {
		e = &planEntry{}
		pl.plans[q] = e
	}
	pl.mu.Unlock()
	e.once.Do(func() { e.plan, e.err = pl.compile(q) })
	return e.plan, e.err
}

func (pl *Planner) compile(q uint64) (plan.Plan, error) {
	cp, ok := pl.p.(plan.Compiler)
	if !ok {
		return pointwise{p: pl.p, q: q}, nil
	}
	f, err := ff.New(q)
	if err != nil {
		return nil, err
	}
	return cp.Compile(f)
}

// pointwise is the plan of a Problem that does not compile: each block
// is a loop over Evaluate.
type pointwise struct {
	p Problem
	q uint64
}

func (pw pointwise) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	rows := make([][]uint64, len(xs))
	for i, x := range xs {
		vec, err := pw.p.Evaluate(pw.q, x)
		if err != nil {
			return nil, fmt.Errorf("evaluating P(%d): %w", x, err)
		}
		rows[i] = vec
	}
	return rows, nil
}

// Block-size autotuning. A block is the cancellation quantum of
// evaluation — ctx is only observed between EvaluateBlock calls — so
// the right size depends on how expensive a point is: cheap points want
// huge blocks (amortize per-block setup), expensive points want small
// ones (bounded abort latency). The first chunk of each range is a small
// probe whose measured duration sets the steady-state size, targeting
// targetBlockNs per block and clamped to [minBatchChunk, maxBatchChunk].
const (
	// probeChunk is the first-chunk probe size.
	probeChunk = 32
	// minBatchChunk / maxBatchChunk clamp the autotuned size.
	minBatchChunk = 16
	maxBatchChunk = 4096
	// targetBlockNs is the steady-state per-block duration the autotuner
	// aims for: long enough to amortize setup, short enough that
	// cancellation latency stays human-scale.
	targetBlockNs = 25_000_000
)

// tuneBlockSize derives the steady-state block size from the probe
// chunk's measured duration.
func tuneBlockSize(elapsed time.Duration, probePoints int) int {
	perPoint := elapsed.Nanoseconds() / int64(probePoints)
	if perPoint <= 0 {
		return maxBatchChunk
	}
	bs := int(targetBlockNs / perPoint)
	if bs < minBatchChunk {
		return minBatchChunk
	}
	if bs > maxBatchChunk {
		return maxBatchChunk
	}
	return bs
}

// evaluateRange computes vals[coord][x-lo] = P_coord(x) mod q for the
// point range [lo, hi).
func evaluateRange(ctx context.Context, pl *Planner, q uint64, lo, hi, width int) ([][]uint64, error) {
	vals := make([][]uint64, width)
	for c := range vals {
		vals[c] = make([]uint64, hi-lo)
	}
	if err := evaluateRangeInto(ctx, pl, q, lo, hi, width, vals, lo); err != nil {
		return nil, err
	}
	return vals, nil
}

// evaluateRangeInto evaluates the point range [lo, hi) directly into
// dst[coord][x-base] — the engine's form, where several chunk tasks of
// the same node write disjoint slices of one shared message buffer.
// Each range task probes its block size for itself: the probe is real
// work, and per-point cost can differ across primes.
func evaluateRangeInto(ctx context.Context, pl *Planner, q uint64, lo, hi, width int, dst [][]uint64, base int) error {
	bp, err := pl.For(q)
	if err != nil {
		return fmt.Errorf("compiling plan mod %d: %w", q, err)
	}
	chunk, tuned := probeChunk, false
	// One chunk buffer for the whole range; EvaluateBlock must not
	// retain its argument (see the Plan contract).
	var xs []uint64
	for start := lo; start < hi; {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+chunk, hi)
		if cap(xs) < end-start {
			xs = make([]uint64, end-start)
		}
		xs = xs[:end-start]
		for i := range xs {
			xs[i] = uint64(start + i)
		}
		probeStart := time.Now()
		rows, err := bp.EvaluateBlock(xs)
		if err != nil {
			return fmt.Errorf("evaluating block [%d,%d) mod %d: %w", start, end, q, err)
		}
		if !tuned {
			chunk = tuneBlockSize(time.Since(probeStart), end-start)
			tuned = true
		}
		if len(rows) != len(xs) {
			return fmt.Errorf("EvaluateBlock returned %d rows, want %d", len(rows), len(xs))
		}
		for i, vec := range rows {
			if len(vec) != width {
				return fmt.Errorf("EvaluateBlock row %d has %d coords, want %d", i, len(vec), width)
			}
			for c, v := range vec {
				dst[c][start-base+i] = v % q
			}
		}
		start = end
	}
	return nil
}

// EvaluateShares computes one complete NodeShares message for the
// point range [lo, hi): every prime's width×span evaluation block,
// stamped with the logical owner, the logical node that sends it, and
// the gather round. It runs the engine's own block loop, so a remotely produced
// frame is bit-identical to what the in-process round would have
// broadcast — the property the multi-process bit-identity checks pin.
//
// This is the worker daemon's whole compute path (internal/ctrl): a
// worker keeps one Planner per assignment manifest, so the per-prime
// compile persists across assignments and repair rounds of the same
// workload.
func (pl *Planner) EvaluateShares(ctx context.Context, primes []uint64, owner, from, round, lo, hi int) (NodeShares, error) {
	m := NodeShares{
		ID: owner, From: from, Round: round,
		Lo: lo, Hi: hi,
		Vals: make([][][]uint64, len(primes)),
	}
	width := pl.Problem().Width()
	start := time.Now()
	for pi, q := range primes {
		vals, err := evaluateRange(ctx, pl, q, lo, hi, width)
		if err != nil {
			return m, err
		}
		m.Vals[pi] = vals
	}
	m.Elapsed = time.Since(start)
	return m, nil
}
