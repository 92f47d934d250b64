// Package core implements the Camelot framework of paper §1.2–§1.4: a
// template for community computation over a common input in which K
// compute nodes jointly evaluate a proof polynomial P(x) mod q at e
// points, the evaluation vector being — by construction — a nonsystematic
// Reed–Solomon codeword. The framework provides:
//
//   - Proof preparation in distributed encoded form (§1.3 step 1):
//     logical nodes, each responsible for ~e/K evaluation points,
//     scheduled on a bounded worker pool and broadcasting their shares
//     over a pluggable Transport (default: an in-memory bus). Problems
//     implementing CompiledProblem compile once per prime and evaluate
//     their owned range in blocks.
//   - Error correction during preparation (§1.3 step 2): every honest
//     node's received word goes through the Gao decoder — once per
//     distinct word, since one process holds them all — recovering the
//     true proof and identifying the failed nodes, for up to ⌊(e-d-1)/2⌋
//     corrupted shares — byzantine equivocation included.
//   - Independent verification (§1.3 step 3): any entity checks the proof
//     against the input with one evaluation of P at a random point;
//     soundness error ≤ d/q per trial.
//
// Problems plug in via the Problem interface; answers larger than one
// modulus are assembled by evaluating over several distinct primes and
// reconstructing with the Chinese Remainder Theorem.
//
// The protocol itself is a staged pipeline (see ARCHITECTURE.md at the
// repository root): engine.go wires prepare → decode → verify over the
// transport layer (transport.go), the worker pool (pool.go) and the
// evaluation seam (planner.go), with context cancellation observed in
// every stage.
package core

import (
	"errors"
	"fmt"
	"time"

	"camelot/internal/ff"
	"camelot/internal/poly"
)

// Problem is a Camelot proof system: a family of Width() univariate proof
// polynomials over Z_q (one instance per admissible prime q), each of
// degree at most Degree(), whose evaluations any node can compute from
// the common input.
//
// Evaluate must be deterministic in (q, x0): the entire framework —
// distributed encoding, error-correction, and verification — relies on
// every honest node computing identical shares.
type Problem interface {
	// Name identifies the problem in reports and errors.
	Name() string
	// Width is the number of simultaneous proof polynomials (most
	// problems use 1; the chromatic polynomial uses one per color count).
	Width() int
	// Degree returns an upper bound d on the degree of every coordinate
	// polynomial.
	Degree() int
	// MinModulus returns the smallest admissible prime modulus (problems
	// derive it from their reconstruction and evaluation needs, e.g.
	// q ≥ 3R+1 for the clique proof of paper §5.2).
	MinModulus() uint64
	// NumPrimes returns how many distinct primes are needed so that the
	// product exceeds the problem's integer answer bound.
	NumPrimes() int
	// Evaluate computes (P_0(x0), ..., P_{Width-1}(x0)) mod q.
	Evaluate(q uint64, x0 uint64) ([]uint64, error)
}

// Proof is the static, independently verifiable artifact of a Camelot
// run: for every modulus, the coefficient vectors of the proof
// polynomials plus the corrected codeword evaluations at points 0..e-1.
type Proof struct {
	// Primes are the proof moduli, ascending.
	Primes []uint64
	// Degree is the degree bound d (coefficient vectors have d+1 entries).
	Degree int
	// Width is the number of coordinate polynomials.
	Width int
	// Points are the evaluation points 0..e-1.
	Points []uint64
	// Coeffs[prime][w] is the coefficient vector of coordinate w mod prime.
	Coeffs map[uint64][][]uint64
	// Evals[prime][w] is the corrected codeword of coordinate w mod prime.
	Evals map[uint64][][]uint64
}

// Eval returns P_w(x) mod prime by Horner on the coefficients — what
// VerifyProof checks against the input — never the stored Evals, which
// only VerifyProofBatch ties to them.
func (p *Proof) Eval(prime uint64, w int, x uint64) uint64 {
	// Run and UnmarshalBinary admit only primes; memoized, so cheap per call.
	return ff.Must(prime).Horner(p.Coeffs[prime][w], x)
}

// SumRange returns Σ_{x=lo}^{hi-1} P_w(x) mod prime — the reconstruction
// sum used by problems whose answer is an evaluation sum (permanent, set
// covers, triangle trace, clique form) — from the coefficients, as Eval.
func (p *Proof) SumRange(prime uint64, w int, lo, hi uint64) uint64 {
	f := ff.Must(prime)
	xs := make([]uint64, 0, max(lo, hi)-lo)
	for x := lo; x < hi; x++ {
		xs = append(xs, x)
	}
	acc := uint64(0)
	for _, v := range poly.NewRing(f).EvalMany(p.Coeffs[prime][w], xs) {
		acc = f.Add(acc, v)
	}
	return acc
}

// SumRanges returns SumRange(q, w, lo, hi) for every prime q, in Primes
// order: the residues from which the CRT reconstructs an answer that is
// an evaluation sum.
func (p *Proof) SumRanges(w int, lo, hi uint64) []uint64 {
	residues := make([]uint64, len(p.Primes))
	for i, q := range p.Primes {
		residues[i] = p.SumRange(q, w, lo, hi)
	}
	return residues
}

// CoeffResidues returns coefficient i of coordinate w modulo every
// prime, in Primes order: the residues of an answer that is a
// coefficient of the proof polynomial.
func (p *Proof) CoeffResidues(w, i int) []uint64 {
	residues := make([]uint64, len(p.Primes))
	for pi, q := range p.Primes {
		residues[pi] = p.Coeffs[q][w][i]
	}
	return residues
}

// Size returns the proof size in field symbols: Width·(d+1) per prime —
// the quantity every theorem in the paper bounds.
func (p *Proof) Size() int {
	return len(p.Primes) * p.Width * (p.Degree + 1)
}

// ErrNoHonestNodes is returned when the adversary corrupts every node.
var ErrNoHonestNodes = errors.New("core: adversary left no honest nodes")

// ErrProofDisagreement is returned when two honest nodes decode different
// proofs: two distinct received words of one prime and coordinate each
// decoded, but to different messages. Within the decoding radius that is
// impossible, so corruption exceeded the configured fault tolerance.
var ErrProofDisagreement = errors.New("core: honest nodes decoded different proofs")

// ErrVerificationFailed is returned when the prepared proof fails the
// randomized check against the input.
var ErrVerificationFailed = errors.New("core: proof verification failed")

// ErrDeliveryFault is the refusal of a strict run (Options.MaxErasures
// 0) whose transport lost, mangled or duplicated away a node's message:
// the run tolerates no delivery fault, so it names the node and stops.
var ErrDeliveryFault = errors.New("core: delivery fault in a strict run")

// Options configure a Camelot run. The zero value is usable: a
// single-node, fault-free, honest run with one verification trial.
type Options struct {
	// Nodes is the number of compute nodes K (default 1).
	Nodes int
	// FaultTolerance is the number f of corrupted shares the run must
	// survive; the codeword length is e = d+1+2f (default 0).
	FaultTolerance int
	// Adversary injects byzantine behaviour (default: none).
	Adversary Adversary
	// Seed drives verification randomness (and nothing else; the
	// computation itself is deterministic).
	Seed int64
	// VerifyTrials is the number of independent spot checks each with
	// soundness error ≤ d/q (default 1).
	VerifyTrials int
	// MaxParallelism is the width of the private worker pool a run
	// without a Pool builds for itself (0 means runtime.GOMAXPROCS). The
	// logical node count K sets the work split, not the goroutine count.
	MaxParallelism int
	// NewTransport builds the share-broadcast transport for a run of k
	// nodes (default: the in-memory BroadcastBus). A factory rather than
	// an instance because transports hold per-run message state while
	// Options values are reused across runs.
	NewTransport TransportFactory
	// MaxErasures is the number of node broadcasts the run tolerates
	// losing in delivery (default 0: every message must arrive). When
	// positive, the gather runs in quorum mode — it returns once
	// K-MaxErasures distinct senders have been heard or the GatherGrace
	// timer fires — and the decode stage treats the missing nodes'
	// coordinates as Reed–Solomon erasures: recovery succeeds whenever
	// 2·(corrupted shares) + (erased shares) ≤ e-d-1.
	MaxErasures int
	// GatherGrace bounds how long a quorum-mode gather waits between
	// message arrivals before treating the stragglers as lost (default
	// 2s). Only settable with MaxErasures > 0: a strict gather waits for
	// every sender while sending continues and allows the default grace
	// for the transport's last hop once it has concluded.
	GatherGrace time.Duration
	// MaxRepairRounds bounds how many repair rounds the engine may run
	// when the decode stage fails with erasures beyond the Reed–Solomon
	// budget: each round re-assigns the missing nodes' point ranges to
	// surviving nodes, re-gathers over the same transport, and retries
	// the decode — converting a transport loss the budget cannot absorb
	// into latency instead of a typed failure. Default 0: repair off,
	// the run fails exactly as before. Requires MaxErasures > 0 (a
	// strict gather has no missing nodes to repair; the combination is
	// ErrInvalidOptions).
	MaxRepairRounds int
	// Pool, when non-nil, is the session layer's shared long-lived
	// worker pool; MaxParallelism is then ignored (the pool's width was
	// fixed at construction). A run without one builds a private pool
	// and closes it on return.
	Pool *Pool
	// Priority is the run's scheduling weight on the shared Pool: each
	// cycle of the pool's between-runs round-robin lets this run claim
	// Priority tasks where a default run claims one. Values below 1
	// (including the zero default) mean weight 1; on a private pool there
	// is nobody to outweigh. This is how a multi-tenant service gives
	// some tenants a larger share of a contended cluster without
	// starving the rest.
	Priority int
	// Geometry, when non-nil, memoizes prime selection and Reed–Solomon
	// code construction across runs — the Cluster's warm per-prime
	// state. One-shot runs leave it nil and recompute per run.
	Geometry *GeometryCache
	// Progress is the run's live record, written by the engine as the
	// run goes (default: a fresh one nobody reads). Hand each run its
	// own.
	Progress *Progress
}

// ErrInvalidOptions is the typed refusal of Options outside their
// domain or contradicting each other. newEngine is the one place that
// judges them, so the Go API, the CLI, manifests and the proof service
// all refuse the same inputs with the same error. Match with errors.Is.
var ErrInvalidOptions = errors.New("core: invalid options")

// validate rejects what withDefaults would otherwise have to guess a
// meaning for: negative counts, and erasure-mode knobs on a strict run.
func (o Options) validate() error {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"Nodes", o.Nodes}, {"FaultTolerance", o.FaultTolerance}, {"VerifyTrials", o.VerifyTrials},
		{"MaxParallelism", o.MaxParallelism}, {"MaxErasures", o.MaxErasures},
		{"MaxRepairRounds", o.MaxRepairRounds}, {"GatherGrace", int(o.GatherGrace)},
	} {
		if c.v < 0 {
			return fmt.Errorf("%w: %s must be >= 0, got %d", ErrInvalidOptions, c.name, c.v)
		}
	}
	if o.MaxErasures == 0 && (o.MaxRepairRounds > 0 || o.GatherGrace > 0) {
		return fmt.Errorf("%w: MaxRepairRounds=%d and GatherGrace=%v require MaxErasures > 0: a strict gather gives up on no sender while sending continues and leaves no missing node to repair",
			ErrInvalidOptions, o.MaxRepairRounds, o.GatherGrace)
	}
	return nil
}

// withDefaults fills the zero fields of validated Options.
func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 1
	}
	if o.Adversary == nil {
		o.Adversary = NoAdversary{}
	}
	if o.VerifyTrials == 0 {
		o.VerifyTrials = 1
	}
	if o.NewTransport == nil {
		o.NewTransport = newBusTransport
	}
	if o.GatherGrace == 0 {
		o.GatherGrace = 2 * time.Second
	}
	if o.Progress == nil {
		o.Progress = new(Progress)
	}
	return o
}

// newBusTransport is the default TransportFactory.
func newBusTransport(k int) (Transport, error) { return NewBroadcastBus(k), nil }

// PointAssignment maps evaluation-point indices to owner nodes in
// contiguous balanced blocks, so each node performs ⌈e/K⌉ or ⌊e/K⌋
// evaluations — the paper's intrinsic workload balance.
type PointAssignment struct {
	e, k int
}

// NewPointAssignment returns the balanced assignment of e points to k
// nodes.
func NewPointAssignment(e, k int) PointAssignment { return PointAssignment{e: e, k: k} }

// Owner returns the node that evaluates point index i.
func (pa PointAssignment) Owner(i int) int {
	// First (e mod k) nodes own ⌈e/k⌉ points, the rest ⌊e/k⌋.
	big := pa.e % pa.k
	per := pa.e / pa.k
	cut := big * (per + 1)
	if i < cut {
		return i / (per + 1)
	}
	if per == 0 {
		return pa.k - 1
	}
	return big + (i-cut)/per
}

// Range returns the half-open point-index interval owned by node id.
func (pa PointAssignment) Range(id int) (lo, hi int) {
	big := pa.e % pa.k
	per := pa.e / pa.k
	if id < big {
		lo = id * (per + 1)
		return lo, lo + per + 1
	}
	lo = big*(per+1) + (id-big)*per
	return lo, lo + per
}

// ChoosePrimes selects count distinct primes, each at least min and
// NTT-friendly for transforms of the given order (so Reed–Solomon
// encode/decode run quasi-linearly). Primes ascend strictly.
func ChoosePrimes(count int, min uint64, order int) ([]uint64, error) {
	if count <= 0 {
		return nil, fmt.Errorf("core: need at least one prime")
	}
	primes := make([]uint64, 0, count)
	next := min
	for len(primes) < count {
		q, _, err := ff.NTTPrime(next, order)
		if err != nil {
			return nil, fmt.Errorf("core: selecting prime >= %d: %w", next, err)
		}
		primes = append(primes, q)
		next = q + 1
	}
	return primes, nil
}
