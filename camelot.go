// Package camelot is a verifiable, byzantine-fault-tolerant distributed
// batch-evaluation framework: a faithful implementation of "How Proofs
// are Prepared at Camelot" (Björklund & Kaski, PODC 2016).
//
// A Camelot computation tasks K nodes with evaluating a problem-specific
// proof polynomial P(x) mod q at e points. The evaluations form a
// Reed–Solomon codeword, so every node can independently error-correct
// the community's shares (identifying the failed nodes as a byproduct)
// and any party can verify the decoded proof against the input with a
// single random evaluation — soundness error at most deg(P)/q per trial.
//
// The package exposes one-call counting functions for every problem the
// paper treats — k-cliques, triangles, the chromatic and Tutte
// polynomials, #CNFSAT, permanents, Hamiltonian cycles, set covers and
// partitions, orthogonal vectors, Hamming distance distributions,
// Convolution3SUM, and 2-CSP enumeration — plus the raw framework
// (RunProblem / VerifyProof) for custom proof polynomials.
//
// The paper's model is a service: K nodes standing by to prepare
// encoded proofs for a stream of inputs. The session API makes that
// explicit — NewCluster creates a long-lived runtime owning a shared
// bounded worker pool and warm per-prime state, Submit enqueues a run
// and returns an async Job handle (Wait, Done, Status with per-stage
// progress), and Close drains in-flight work. The one-shot functions
// are thin wrappers over a lazily initialized default cluster, so both
// styles produce bit-identical proofs.
package camelot

import (
	"time"

	"camelot/internal/core"
	"camelot/internal/graph"
	"camelot/internal/rs"
)

// ErrDecodeFailure is the typed failure of a run whose combined faults
// exceed the Reed–Solomon budget — too many corrupted shares, too many
// lost broadcasts, or both (2·errors + erasures > e-d-1). Match with
// errors.Is; the budget arithmetic lives in the run's FaultTolerance
// and MaxErasures options.
var ErrDecodeFailure = rs.ErrDecodeFailure

// ErrInvalidOptions is the typed refusal of run options outside their
// domain (a negative node count, fault tolerance, trial count, erasure
// or repair budget; a fault record naming a node the run does not have,
// a node twice, or a rate outside [0, 1]) or contradicting each other
// (WithMaxRepairRounds or WithGatherGrace without WithMaxErasures). The engine judges them once
// per run, so one-shot calls, Cluster.Submit, manifests and the proof
// service all refuse the same inputs. Match with errors.Is.
var ErrInvalidOptions = core.ErrInvalidOptions

// ErrDeliveryFault is the typed refusal of a strict run — one without
// WithMaxErasures — whose transport lost a node's broadcast: once
// sending has concluded and a grace period has passed, the run names
// the unheard node and stops rather than wait. Match with errors.Is.
var ErrDeliveryFault = core.ErrDeliveryFault

// Report summarizes a run: sizing (proof symbols, code length, primes),
// timing (per-node and total compute), adversary damage (suspect nodes,
// corrupted shares), and the verification outcome.
type Report = core.Report

// Proof is the static, independently verifiable artifact of a run.
type Proof = core.Proof

// Problem is the plug-in interface for custom Camelot proof systems; see
// the core package documentation for the contract.
type Problem = core.Problem

// Adversary is a run's fault schedule, one record: liars (the same
// garbage to every recipient), equivocators (different garbage to each),
// crashed nodes whose broadcasts are always lost (DropNodes), and a
// seeded lossy network (DropRate, DupRate, DelayRate, MaxDelay). Each
// faulty node applies it to the message it sends — in-process, over
// TCP and on a coordinator's workers alike — and the decoder is never
// told who was faulty: it names the liars from the words it received
// (Report.SuspectNodes) and the lost nodes from what never arrived
// (Report.MissingNodes). Every draw is a pure function of Seed and the
// sending node. Pass it with WithAdversary; node ids must lie in
// [0, K), each in one role, and rates in [0, 1], or the run is
// ErrInvalidOptions. A run that may lose broadcasts also needs
// WithMaxErasures; a strict run that loses one ends in ErrDeliveryFault.
type Adversary = core.Adversary

// Transport carries node share broadcasts; the default is the in-memory
// broadcast bus. It is four methods — Send, Gather, GatherQuorum, Close
// — and a run's engine closes the transport it asked the factory for.
type Transport = core.Transport

// GatherSpec parameterizes Transport.GatherQuorum; a custom transport
// wrapping a built-in one hands it through unchanged.
type GatherSpec = core.GatherSpec

// TransportFactory builds a fresh Transport for a run of k nodes; an
// error it returns (a bind failure, say) is the run's error.
type TransportFactory = core.TransportFactory

// NodeShares is the message a node broadcasts over the Transport.
type NodeShares = core.NodeShares

// ErrBadFrame is the typed rejection of a malformed NodeShares frame
// arriving over a networked transport. Match with errors.Is.
var ErrBadFrame = core.ErrBadFrame

// ErrMalformedProof is the typed rejection of proof bytes that cannot
// be a Camelot proof — wrong magic, duplicated or implausible
// geometry, or size claims the data cannot back. Match with errors.Is.
var ErrMalformedProof = core.ErrMalformedProof

// NewBroadcastBus returns the default in-memory transport for k nodes.
func NewBroadcastBus(k int) *core.BroadcastBus { return core.NewBroadcastBus(k) }

// LyingNodes returns the fault record whose listed nodes broadcast
// deterministic garbage (the same garbage to every recipient), seeded
// by salt.
func LyingNodes(salt uint64, ids ...int) Adversary { return Adversary{Seed: salt, Liars: ids} }

// --- Options ------------------------------------------------------------------

// Every run setting lives in one record, the engine's core.Options,
// validated once per run in internal/core. Each With* constructor is a
// setter of one of its fields, and the three option types only say where
// a setter is accepted, mirroring the session API:
//
//   - ClusterOption configures the long-lived runtime — how wide the
//     shared worker pool is, how many logical nodes serve a run, how
//     shares travel. Accepted by NewCluster, whose Cluster keeps the
//     resolved record as the base of every run it starts.
//   - RunOption configures one run — its fault tolerance, adversary,
//     randomness, verification effort. Accepted by Cluster.Submit, which
//     applies it to a copy of the cluster's record, and by
//     ServerConfig.Run.
//   - Option is either of the two: what the one-shot facade functions
//     take, applied to a copy of the default cluster's record.

// Option configures a one-shot facade call (CountTriangles,
// TuttePolynomial, RunProblem, ...). Every ClusterOption and RunOption
// is also an Option.
type Option interface {
	apply(*core.Options)
}

// ClusterOption is a cluster-scoped Option: it configures the
// long-lived runtime a NewCluster call creates.
type ClusterOption func(*core.Options)

// RunOption is a run-scoped Option: it configures a single submitted
// run.
type RunOption func(*core.Options)

func (o ClusterOption) apply(dst *core.Options) { o(dst) }
func (o RunOption) apply(dst *core.Options)     { o(dst) }

// resolve applies opts, in order, to a copy of base.
func resolve[O Option](base core.Options, opts []O) core.Options {
	for _, o := range opts {
		o.apply(&base)
	}
	return base
}

// WithNodes sets the number of compute nodes K (default 1). Cluster
// scope: K is the work split every run on the cluster uses.
func WithNodes(k int) ClusterOption {
	return func(o *core.Options) { o.Nodes = k }
}

// WithMaxParallelism bounds the worker pool that drives node evaluation
// and decoding (0 = GOMAXPROCS). The logical node count K sets the work
// split, not the goroutine count. Cluster scope: the pool is the
// cluster's shared execution width, fixed at construction.
func WithMaxParallelism(n int) ClusterOption {
	return func(o *core.Options) { o.MaxParallelism = n }
}

// WithTransport substitutes the share-broadcast transport (default: the
// in-memory broadcast bus). The factory is invoked once per run with
// the node count, so transports can size their buffers.
func WithTransport(tf TransportFactory) ClusterOption {
	return func(o *core.Options) { o.NewTransport = tf }
}

// WithListenAddr carries share broadcasts over loopback TCP instead of
// the in-memory bus: each run's collector binds addr and every node's
// Send dials what it bound, so an ephemeral port works —
// WithListenAddr("127.0.0.1:0") is the idiomatic form. The wire format
// is the versioned length-prefixed NodeShares frame (see
// ARCHITECTURE.md "Transport layer"); delivery faults a real socket can
// inflict (lost, truncated, or corrupted frames) are absorbed by the
// same WithMaxErasures/WithGatherGrace budget as any other transport.
// Each run binds its own listener, so concurrent runs on one cluster
// need an ephemeral port; back-to-back runs can share a fixed one.
// Replaces any previously configured transport; a WithAdversary record's
// faults ride the socket path like any other. Runs whose nodes are
// other processes use NewCoordinator instead.
func WithListenAddr(addr string) ClusterOption {
	return func(o *core.Options) {
		o.NewTransport = core.NewTCPFactory(core.TCPConfig{ListenAddr: addr})
	}
}

// WithFaultTolerance sets the number f of corrupted shares the run
// survives; the codeword is lengthened to e = d+1+2f.
func WithFaultTolerance(f int) RunOption {
	return func(o *core.Options) { o.FaultTolerance = f }
}

// WithAdversary sets the run's fault schedule (for experiments and
// tests): lying, equivocating and crashed nodes and a lossy network, in
// one record; see Adversary.
func WithAdversary(a Adversary) RunOption {
	return func(o *core.Options) { o.Adversary = a }
}

// WithSeed seeds the verification randomness.
func WithSeed(seed int64) RunOption {
	return func(o *core.Options) { o.Seed = seed }
}

// WithVerifyTrials sets the number of independent spot checks (each with
// soundness error <= d/q; default 1).
func WithVerifyTrials(trials int) RunOption {
	return func(o *core.Options) { o.VerifyTrials = trials }
}

// WithMaxErasures lets the run tolerate losing up to n node broadcasts
// in delivery: the gather returns once K-n distinct senders have been
// heard (or the grace timer fires) and the missing nodes' coordinates
// are decoded as Reed–Solomon erasures — each costing half an error in
// the budget 2·errors + erasures ≤ e-d-1. Default 0: a strict run that
// fails with ErrDeliveryFault if any message is lost.
func WithMaxErasures(n int) RunOption {
	return func(o *core.Options) { o.MaxErasures = n }
}

// WithGatherGrace bounds how long an erasure-tolerant gather waits
// between hearing from *new* senders before giving up on stragglers
// (default 2s; without WithMaxErasures it is ErrInvalidOptions). Duplicate
// deliveries do not renew the grace — only a sender not heard before
// does, as does the moment all sending concludes.
func WithGatherGrace(d time.Duration) RunOption {
	return func(o *core.Options) { o.GatherGrace = d }
}

// WithMaxRepairRounds lets the run recover from delivery losses beyond
// the Reed–Solomon budget: when the decode stage fails with
// ErrDecodeFailure, up to n repair rounds re-assign the missing nodes'
// point ranges to surviving nodes, re-gather over the same transport,
// and retry the decode — turning a terminal failure into latency.
// Repaired proofs are bit-identical to fault-free ones (evaluation is
// deterministic in the point). Default 0: repair off. Requires
// WithMaxErasures — a strict gather has no missing nodes to repair, and
// the combination is ErrInvalidOptions.
func WithMaxRepairRounds(n int) RunOption {
	return func(o *core.Options) { o.MaxRepairRounds = n }
}

// WithPriority sets the run's scheduling weight on the cluster's shared
// pool: each cycle of the pool's between-runs round-robin lets this run
// claim weight tasks where a default run claims one. Values below 1
// (including the default 0) mean weight 1. Weights shape shares, not
// admission — every run with work left still claims at least one task
// per cycle, so a low-priority run is never starved. This is the knob a
// multi-tenant proof service uses to give some tenants a larger slice
// of a contended cluster.
func WithPriority(weight int) RunOption {
	return func(o *core.Options) { o.Priority = weight }
}

// --- Public input types -------------------------------------------------------

// Graph is a simple undirected graph on vertices 0..n-1.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return &Graph{g: graph.New(n)} }

// AddEdge inserts the undirected edge {u, v}; loops and duplicates are
// ignored.
func (g *Graph) AddEdge(u, v int) { g.g.AddEdge(u, v) }

// N returns the vertex count.
func (g *Graph) N() int { return g.g.N() }

// M returns the edge count.
func (g *Graph) M() int { return g.g.M() }

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.g.HasEdge(u, v) }

// RandomGraph returns an Erdős–Rényi G(n, p) graph.
func RandomGraph(n int, p float64, seed int64) *Graph {
	return &Graph{g: graph.Gnp(n, p, seed)}
}

// CompleteGraph returns K_n.
func CompleteGraph(n int) *Graph { return &Graph{g: graph.Complete(n)} }

// CycleGraph returns C_n.
func CycleGraph(n int) *Graph { return &Graph{g: graph.Cycle(n)} }

// PetersenGraph returns the Petersen graph.
func PetersenGraph() *Graph { return &Graph{g: graph.Petersen()} }

// PlantCliques returns a sparse random graph with cnt planted k-cliques.
func PlantCliques(n int, p float64, k, cnt int, seed int64) *Graph {
	return &Graph{g: graph.PlantCliques(n, p, k, cnt, seed)}
}

// Multigraph is an undirected multigraph (loops and parallel edges
// allowed), the Tutte polynomial's natural domain.
type Multigraph struct {
	mg *graph.Multigraph
}

// NewMultigraph returns an edgeless multigraph on n vertices.
func NewMultigraph(n int) *Multigraph { return &Multigraph{mg: graph.NewMultigraph(n)} }

// AddEdge appends an edge; u == v inserts a loop.
func (m *Multigraph) AddEdge(u, v int) { m.mg.AddEdge(u, v) }

// N returns the vertex count.
func (m *Multigraph) N() int { return m.mg.N() }

// M returns the edge count with multiplicity.
func (m *Multigraph) M() int { return m.mg.M() }

// FromGraph converts a simple graph.
func FromGraph(g *Graph) *Multigraph { return &Multigraph{mg: graph.FromGraph(g.g)} }

// RandomMultigraph draws m edges uniformly with replacement.
func RandomMultigraph(n, m int, seed int64) *Multigraph {
	return &Multigraph{mg: graph.RandomMultigraph(n, m, seed)}
}
