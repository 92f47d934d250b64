package core

// The pipeline layer wires the paper's three protocol steps — prepare,
// decode, verify — over the transport, the worker pool and the
// evaluation seam. Preparation is one loop: round sends a list of range
// assignments out and gathers the shares back, once for all K ranges
// and again for whatever a failed decode says is still missing. Every
// step observes context cancellation at entry and inside its hot loops,
// so a cancelled run returns promptly wherever it is.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"camelot/internal/rs"
)

// Report records what a Camelot run did: sizing, timing, adversary
// damage, and verification outcome. Run returns it on every exit once the
// options and geometry are accepted, failures included. The stage walls
// are charged whenever the run moves on from a stage, however the stage
// ended, and add up over repair rounds; MaxNodeCompute approximates the
// paper's per-node time E and TotalNodeCompute the total work EK.
type Report struct {
	// Problem is the Problem.Name of the run.
	Problem string
	// Nodes is K, the number of compute nodes.
	Nodes int
	// Width, Degree, CodeLength, FaultTolerance echo the run geometry
	// (CodeLength is e = Degree+1+2·FaultTolerance).
	Width, Degree, CodeLength, FaultTolerance int
	// Primes are the proof moduli.
	Primes []uint64
	// ProofSymbols is the total proof size in field symbols.
	ProofSymbols int
	// ByzantineNodes are the fault record's liars and equivocators.
	ByzantineNodes []int
	// SuspectNodes are the nodes the decoders identified as having
	// contributed corrupted shares (union across received words).
	SuspectNodes []int
	// MissingNodes are the nodes whose share broadcasts never arrived —
	// delivery faults, reported distinctly from the content-fault
	// SuspectNodes. Their coordinates were decoded as erasures. When
	// repair rounds ran, this is the set still missing after the last
	// round; nodes a repair recovered move to RepairedNodes.
	MissingNodes []int
	// RepairedNodes are the nodes whose lost broadcasts a repair round
	// recovered: their point ranges were recomputed by surviving nodes
	// and re-gathered, so their coordinates were decoded as ordinary
	// symbols after all. Sorted ascending.
	RepairedNodes []int
	// RepairRounds is the number of self-healing gather rounds the run
	// executed (0 when repair never triggered or was disabled).
	RepairRounds int
	// CorruptedShares is the largest number of error locations any single
	// decode observed (per prime, coordinate and word, maximized).
	CorruptedShares int
	// ComputeWall is the wall-clock time of the prepare stage (building
	// the transport, distributed evaluation and gather) over all rounds.
	ComputeWall time.Duration
	// MaxNodeCompute is the largest single node's evaluation time (≈ E).
	MaxNodeCompute time.Duration
	// TotalNodeCompute is the summed evaluation time of all nodes (≈ EK).
	TotalNodeCompute time.Duration
	// DecodeWall is the wall-clock time of the decode stage over all
	// rounds.
	DecodeWall time.Duration
	// Decodes is the number of Gao decodes performed over all rounds: one
	// per distinct received word per prime and coordinate — primes × width
	// unless an equivocating sender shows different nodes different words.
	Decodes int
	// VerifyPerTrial is the verifier's wall-clock time over all rounds,
	// divided by VerifyTrials. Its evaluations at the challenge points
	// run once a run, on the pool beside the prepare stage; what of them
	// ran before the verify stage began is added to that stage's wall,
	// so VerifyTrials × VerifyPerTrial is every verification pass plus
	// the one set of evaluations, and ComputeWall and DecodeWall stay
	// their own stages' walls.
	VerifyPerTrial time.Duration
	// VerifyTrials is the number of spot checks per verification pass.
	VerifyTrials int
	// Verified reports whether every trial accepted.
	Verified bool
}

// engine holds one run's resolved geometry and shared state; its methods
// are the pipeline stages.
type engine struct {
	p    Problem
	opts Options
	// planner memoizes the run's per-prime evaluation plans: every chunk
	// task and repair round of this run shares one compile per prime.
	planner *Planner
	// pool executes the run's chunk and decode tasks: Options.Pool when
	// the session layer supplied one, otherwise a private pool the engine
	// closes with the run.
	pool   *Pool
	w, d   int // width, degree bound
	e, k   int // code length, node count (clamped to e)
	primes []uint64
	assign PointAssignment
	codes  []*rs.Code
	report *Report
	// The stage the run is in and since when; verifyWall is the verify
	// stage's wall so far, which the report carries per trial.
	stage      Stage
	since      time.Time
	verifyWall time.Duration

	// Transport state, owned for the whole run once round 0 builds it:
	// repair rounds re-gather over the same instance, so the engine —
	// not the gather — decides when the transport's world ends (see
	// close).
	tr Transport
	// remote is the transport's RemoteAssigner capability when it has
	// one: rounds then ship AssignSpec manifests to remote workers
	// instead of evaluating on the local pool.
	remote RemoteAssigner

	// What the rounds so far have gathered: the valid share messages
	// (round 0's ordered by node id, repaired ones appended), and the
	// ids still unheard — their coordinates become Reed–Solomon erasures
	// in the decode stage.
	shares  []NodeShares
	missing []int

	// expect is the verifier's evaluations at its challenge points,
	// which Run starts on the pool before round 0.
	expect pendingExpect
}

// pendingExpect is the verifier's half of step 3 that reads no proof
// (expectProof), put on the pool while the Knights prepare the proof.
type pendingExpect struct {
	wait       func() error // the pool's verdict; nil once collected
	stop       context.CancelFunc
	exp        *expectations
	start, end time.Time // when the evaluations ran
}

// newEngine validates the options and the problem geometry, selects the
// proof moduli, and builds the per-prime Reed–Solomon codes.
func newEngine(p Problem, opts Options) (*engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	d := p.Degree()
	w := p.Width()
	if w <= 0 || d < 0 {
		return nil, fmt.Errorf("invalid geometry width=%d degree=%d", w, d)
	}
	e := d + 1 + 2*opts.FaultTolerance
	k := opts.Nodes
	if k > e {
		k = e // more nodes than points is pointless; trailing nodes would idle
	}
	if err := opts.Adversary.Validate(k); err != nil {
		return nil, err
	}
	minQ := p.MinModulus()
	if minQ < uint64(e)+1 {
		minQ = uint64(e) + 1
	}
	order := 1
	for order < 2*e {
		order <<= 1
	}
	// Geometry resolution goes through the (possibly nil) cache: a
	// Cluster's warm state makes repeated same-shape runs skip the prime
	// scan and code construction entirely.
	cached, err := opts.Geometry.choosePrimes(p.NumPrimes(), minQ, order)
	if err != nil {
		return nil, err
	}
	// Copy: the report and proof publish the slice to callers, and the
	// cached copy must stay immutable.
	primes := append([]uint64(nil), cached...)
	codes := make([]*rs.Code, len(primes))
	for pi, q := range primes {
		code, err := opts.Geometry.code(q, e, d)
		if err != nil {
			return nil, err
		}
		codes[pi] = code
	}
	pool := opts.Pool
	if pool == nil {
		pool = NewPool(opts.MaxParallelism)
	}
	return &engine{
		p: p, opts: opts, w: w, d: d, e: e, k: k,
		planner: NewPlanner(p),
		pool:    pool,
		primes:  primes,
		assign:  NewPointAssignment(e, k),
		codes:   codes,
		report: &Report{
			Problem:        p.Name(),
			Nodes:          k,
			Width:          w,
			Degree:         d,
			CodeLength:     e,
			FaultTolerance: opts.FaultTolerance,
			Primes:         primes,
			ByzantineNodes: opts.Adversary.CorruptNodes(),
			VerifyTrials:   opts.VerifyTrials,
		},
	}, nil
}

// Run executes the full Camelot protocol for the problem: distributed
// proof preparation on a bounded worker pool over opts.Nodes logical
// nodes, Gao decoding of every distinct received word with failed-node
// identification, cross-node agreement check, and randomized
// verification. When the decode fails with erasures beyond the
// Reed–Solomon budget — or slips past it into a wrong proof that
// verification then rejects — and Options.MaxRepairRounds allows it,
// bounded repair rounds re-assign the missing nodes' point ranges to
// survivors and retry — turning delivery faults the budget cannot absorb
// into latency. It returns the decoded proof even when verification
// fails (callers inspect the error), and the Report on every exit past
// newEngine.
func Run(ctx context.Context, p Problem, opts Options) (*Proof, *Report, error) {
	en, err := newEngine(p, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", p.Name(), err)
	}
	// The engine owns the transport for the whole run: no gather ends
	// it, close does. Before that, the last stage's wall is charged.
	defer en.close()
	defer en.enter(StageDone)
	en.opts.Progress.pointsTotal.Store(int64(en.e * len(en.primes)))
	en.startExpect(ctx)
	if err := en.round(ctx, 0, en.ownRanges()); err != nil {
		return nil, en.report, fmt.Errorf("core: %s: %w", p.Name(), err)
	}
	proof, err := en.decodeAndVerify(ctx)
	for n := 1; err != nil && en.canRepair(err, n); n++ {
		if rerr := en.round(ctx, n, en.repairRanges(n)); rerr != nil {
			return nil, en.report, fmt.Errorf("core: %s: repair round %d: %w", p.Name(), n, rerr)
		}
		proof, err = en.decodeAndVerify(ctx)
	}
	if err != nil {
		err = fmt.Errorf("core: %s: %w", p.Name(), err)
	}
	return proof, en.report, err
}

// enter moves the run to stage s: it publishes s and charges the wall of
// the stage the run leaves to the report — the one clock of every stage,
// however the stage ended.
func (en *engine) enter(s Stage) {
	now := time.Now()
	wall := now.Sub(en.since)
	switch en.stage {
	case StagePrepare:
		en.report.ComputeWall += wall
	case StageDecode:
		en.report.DecodeWall += wall
	case StageVerify:
		en.verifyWall += wall
		en.report.VerifyPerTrial = en.verifyWall / time.Duration(en.opts.VerifyTrials)
	}
	en.stage, en.since = s, now
	en.opts.Progress.stage.Store(int32(s))
}

// decodeAndVerify is protocol steps 2 and 3 over whatever the rounds so
// far have gathered. A proof that decoded but failed its check is
// returned beside the error.
func (en *engine) decodeAndVerify(ctx context.Context) (*Proof, error) {
	proof, err := en.stageDecode(ctx)
	if err != nil {
		return nil, err
	}
	return proof, en.stageVerify(ctx, proof)
}

// canRepair decides whether a failed decode-and-verify is worth another
// gather round: repair must be enabled with rounds left, the failure
// must be one more shares can fix, and there must be both missing nodes
// to recompute and survivors to recompute them. Two failures qualify.
// The typed beyond-budget refusal is the usual one. The other is a
// failed verification while nodes are missing: erasures shrink the
// unique-decoding radius, and content errors beyond what is left of it
// can land the received word inside a *neighbouring* codeword's radius —
// Gao then succeeds with the wrong polynomial (over a small field this
// is not even rare) and only verification, the paper's safety net, sees
// it. Anything else — cancellation, a decoder bug — repair cannot fix.
func (en *engine) canRepair(err error, round int) bool {
	recoverable := errors.Is(err, rs.ErrDecodeFailure) || errors.Is(err, ErrVerificationFailed)
	if !(round <= en.opts.MaxRepairRounds && recoverable && len(en.missing) > 0) {
		return false
	}
	// Locally, a survivor must exist to sponsor the recompute. Remotely,
	// logical nodes and workers are different populations: even with
	// every logical node missing, any live worker can be re-assigned the
	// ranges (AssignRanges fails if none is).
	return en.remote != nil || len(en.missing) < en.k
}

// startExpect submits the verifier's evaluations at its challenge points
// to the pool, with the run's priority and ahead of round 0's chunks:
// they need the primes and the seed, never the proof, so they run while
// the proof is prepared (on the coordinator while remote workers
// evaluate) and stageVerify only checks.
func (en *engine) startExpect(ctx context.Context) {
	pe := &en.expect
	ctx, pe.stop = context.WithCancel(ctx)
	pe.wait = en.pool.Start(ctx, 1, en.opts.Priority, func(int) error {
		pe.start = time.Now()
		exp, err := expectProof(ctx, en.p, en.primes, en.opts.VerifyTrials, en.opts.Seed)
		pe.exp, pe.end = exp, time.Now()
		return err
	})
}

// expectations returns the verifier's evaluations: startExpect's,
// waited for until ctx ends, or computed in place when the stage runs
// without Run. The evaluations that ran before the verify stage began
// are charged to it all the same, once: they are the verifier's work.
func (en *engine) expectations(ctx context.Context) (*expectations, error) {
	pe := &en.expect
	if pe.wait != nil {
		defer context.AfterFunc(ctx, pe.stop)()
		err := pe.wait()
		pe.wait = nil
		if err != nil {
			return nil, err
		}
		before := pe.end
		if en.since.Before(before) {
			before = en.since
		}
		en.verifyWall += max(0, before.Sub(pe.start))
	}
	if pe.exp == nil {
		exp, err := expectProof(ctx, en.p, en.primes, en.opts.VerifyTrials, en.opts.Seed)
		if err != nil {
			return nil, err
		}
		pe.exp = exp
	}
	return pe.exp, nil
}

// close releases what the engine owns for the run: the verifier's
// evaluations still in flight, the transport (nil when the run failed
// before round 0 opened one) and the private pool.
func (en *engine) close() {
	if pe := &en.expect; pe.stop != nil {
		pe.stop()
		if pe.wait != nil {
			pe.wait()
		}
	}
	if en.tr != nil {
		en.tr.Close()
	}
	if en.opts.Pool == nil {
		en.pool.Close()
	}
}

// assignment is one unit of a round: the point range [lo, hi) that
// owner's decoder coordinates index, evaluated and sent by sponsor. In
// round 0 every node sponsors its own range; in a repair round the
// owner's broadcast was lost and a survivor stands in.
type assignment struct {
	owner, sponsor int
	lo, hi         int
}

// ownRanges is round 0's assignment list: every node evaluates and
// broadcasts its own range.
func (en *engine) ownRanges() []assignment {
	ranges := make([]assignment, en.k)
	for id := range ranges {
		lo, hi := en.assign.Range(id)
		ranges[id] = assignment{owner: id, sponsor: id, lo: lo, hi: hi}
	}
	return ranges
}

// repairRanges re-assigns the missing nodes' ranges for repair round n.
// Evaluation is deterministic in (q, x0), so a survivor recomputes
// exactly the values the dead node would have sent, bit for bit. The
// message carries the dead owner's id (what the decoders index by) and
// is sent by a sponsoring survivor (whose faults it then suffers),
// sponsors rotating across rounds so a round-robin neighbor with its own
// bad link does not doom every retry. Remotely the sponsor is the
// logical node the worker acts as, whichever live worker the
// coordinator routes the range to.
func (en *engine) repairRanges(n int) []assignment {
	dead := make([]bool, en.k)
	for _, id := range en.missing {
		dead[id] = true
	}
	survivors := make([]int, 0, en.k-len(en.missing))
	for id, d := range dead {
		if !d {
			survivors = append(survivors, id)
		}
	}
	ranges := make([]assignment, len(en.missing))
	for i, id := range en.missing {
		lo, hi := en.assign.Range(id)
		ranges[i] = assignment{owner: id, sponsor: id, lo: lo, hi: hi}
		if len(survivors) > 0 {
			ranges[i].sponsor = survivors[(i+n-1)%len(survivors)]
		}
	}
	return ranges
}

// round is protocol step 1 (distributed encoded proof preparation) for
// one list of assignments: each range is evaluated for every prime and
// coordinate and broadcast as one message over the transport, the
// collector gathers them, and the valid ones join en.shares while the
// unheard owners become en.missing. Round 0 assigns all K ranges; repair
// round n ≥ 1 runs after the decode stage refused (erasures beyond the
// Reed–Solomon budget) and re-assigns exactly the missing ones, leaving
// whatever is still missing for the decode retry to judge against the
// budget.
//
// In quorum mode (Options.MaxErasures > 0) the gather tolerates delivery
// faults: round 0 returns once K-MaxErasures distinct senders have been
// heard or the grace timer fires, stragglers are cut loose (their
// pending work is cancelled — it could only produce messages the run
// has already given up on), and the missing ids are decoded as erasures
// instead of failing the run. A strict run refuses any loss by name.
func (en *engine) round(ctx context.Context, n int, ranges []assignment) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	en.enter(StagePrepare)
	if n == 0 {
		// A transport that can assign work to remote workers flips the
		// engine into remote mode: manifests go out instead of local
		// evaluation, and frames stream back through the same gather.
		tr, err := en.opts.NewTransport(en.k)
		if err != nil {
			return err
		}
		en.tr = tr
		en.remote, _ = tr.(RemoteAssigner)
	} else {
		en.opts.Progress.repairRounds.Store(int32(n))
	}
	quorumMode := en.opts.MaxErasures > 0
	spec := GatherSpec{
		K: en.k,
		// A repair round is complete when every re-assigned range has
		// been heard; the grace timer hands over a partial round.
		Quorum: len(ranges),
		Grace:  en.opts.GatherGrace,
		Strict: !quorumMode,
		Round:  n,
	}
	if n == 0 {
		spec.Quorum -= en.opts.MaxErasures
	}
	msgs, err := en.exchange(ctx, spec, ranges)
	if err != nil {
		return err
	}
	if quorumMode {
		// A node that reports an in-band failure contributed no shares,
		// which is exactly the delivery-fault axis a quorum run absorbs:
		// drop its report and let its coordinates erase within budget
		// (a duplicate delivery carrying real shares still wins). This
		// also keeps a forged error frame from an untrusted network peer
		// from failing the run — in strict mode it still does, loudly,
		// via collectShares.
		kept := msgs[:0]
		for _, m := range msgs {
			if m.Err != nil && m.ID >= 0 && m.ID < en.k {
				continue
			}
			kept = append(kept, m)
		}
		msgs = kept
	}
	delivered, _, err := collectShares(msgs, en.k, n)
	if err != nil {
		return err
	}
	// A delivery counts when it belongs to a range this round assigned
	// and passes the shape guard: a message that crossed an untrusted
	// transport (TCP) may claim any geometry the codec's generic bounds
	// allow, and the decoders index shares by the run's. A malformed
	// message must never panic a decoder — it becomes its sender's
	// delivery fault where the run tolerates those, and a typed refusal
	// where it does not.
	wanted := make([]bool, en.k)
	for _, a := range ranges {
		wanted[a.owner] = true
	}
	for _, m := range delivered {
		if !wanted[m.ID] {
			continue
		}
		if !en.shareShapeOK(m) {
			if !quorumMode {
				return fmt.Errorf("transport delivered malformed shares from node %d; tolerate delivery faults with MaxErasures", m.ID)
			}
			continue
		}
		wanted[m.ID] = false
		en.shares = append(en.shares, m)
		en.report.TotalNodeCompute += m.Elapsed
		if m.Elapsed > en.report.MaxNodeCompute {
			en.report.MaxNodeCompute = m.Elapsed
		}
		if en.remote != nil {
			// Remote evaluation reports no per-chunk progress; count a
			// range's (point, prime) units when its frame lands.
			en.opts.Progress.pointsDone.Add(int64((m.Hi - m.Lo) * len(en.primes)))
		}
		if n > 0 {
			en.report.RepairedNodes = append(en.report.RepairedNodes, m.ID)
		}
	}
	var missing []int
	for _, a := range ranges {
		if wanted[a.owner] {
			missing = append(missing, a.owner)
		}
	}
	if len(missing) > 0 && !quorumMode {
		return fmt.Errorf("%w: transport delivered no message from node %d", ErrDeliveryFault, missing[0])
	}
	en.missing = missing
	en.report.MissingNodes = missing
	if n == 0 {
		en.opts.Progress.deliveryFaults.Store(int32(len(missing)))
	} else {
		sort.Ints(en.report.RepairedNodes)
		en.report.RepairRounds = n
	}
	return nil
}

// exchange drives one send/gather round over the run's transport and
// returns the raw gathered messages. Only the executor differs between
// deployments: locally the worker pool evaluates the ranges and Sends
// each completed message while the collector gathers; remotely the
// transport ships each range's manifest to a live worker and the
// collector gathers the frames streamed back.
//
// Each round gets fresh send and gather contexts scoped to this call —
// cancelling the round's senders on return is what abandons its
// still-pending deliveries (a sender's delayed copies, say) so
// they cannot leak into a later round's gather; the round filter in the
// quorum loop is the second line of defense.
func (en *engine) exchange(ctx context.Context, spec GatherSpec, ranges []assignment) ([]NodeShares, error) {
	// Failure on either side of the transport must cancel the other:
	// a pool (Send) failure cancels the gather so the collector cannot
	// wait forever on messages that will never arrive, and a gather
	// failure cancels the senders so a bounded transport cannot leave
	// them blocked on a dead collector.
	sendCtx, cancelSend := context.WithCancel(ctx)
	defer cancelSend()
	gatherCtx, cancelGather := context.WithCancel(ctx)
	defer cancelGather()
	sent := make(chan error, 1)
	if en.remote != nil {
		// SendsDone stays nil: the engine cannot see when remote workers
		// finish sending; the coordinator's gather knows it from their
		// frames and Lost reports.
		manifests := make([]AssignSpec, len(ranges))
		for i, a := range ranges {
			manifests[i] = AssignSpec{
				Owner: a.owner, Sponsor: a.sponsor, Round: spec.Round, Lo: a.lo, Hi: a.hi,
				Width: en.w, Primes: en.primes, K: en.k, Adversary: en.opts.Adversary,
			}
		}
		if err := en.remote.AssignRanges(ctx, manifests); err != nil {
			return nil, err
		}
		sent <- nil
	} else {
		// sendsDone tells the gather that no further Send can occur, so a
		// network that lost messages ends the round one grace period
		// later instead of waiting out the caller's context.
		sendsDone := make(chan struct{})
		spec.SendsDone = sendsDone
		go func() {
			defer close(sendsDone)
			err := en.evaluateAndSend(sendCtx, spec.Round, ranges)
			if err != nil {
				cancelGather()
			}
			sent <- err
		}()
	}
	// Every gather goes by spec, strict ones included: Transport.Gather
	// has no SendsDone and could only wait out a lost message.
	msgs, gatherErr := en.tr.GatherQuorum(gatherCtx, spec)
	// Either outcome ends the round's senders: after a failure the
	// cancellation frees workers stuck on a dead collector; after a
	// success any straggler still computing or sending is cut loose
	// (strict gathers have heard every node by now, quorum gathers have
	// decided to erase the rest).
	cancelSend()
	// Prefer the root cause over the cancellation it triggered on the
	// other side.
	if sendErr := <-sent; sendErr != nil && !errors.Is(sendErr, context.Canceled) {
		return nil, sendErr
	}
	if gatherErr != nil {
		return nil, gatherErr
	}
	return msgs, nil
}

// prepNode tracks one assignment's message across its chunk tasks.
type prepNode struct {
	msg       NodeShares
	remaining atomic.Int32
	elapsedNS atomic.Int64
}

// prepChunk is one local evaluation task: a slice of one assignment's
// point range for one prime. node indexes the round's prepNode slice.
type prepChunk struct {
	node, prime int
	lo, hi      int
}

// evaluateAndSend is the local executor: the pool evaluates every
// assignment and sends each message as its last chunk completes, then
// waits for the round's delayed deliveries.
//
// The work unit is a (range, prime, sub-range) chunk rather than a whole
// node: when the pool is wider than the assignment list — a single-node
// run on a many-core box, say — idle workers take sub-chunks of the same
// range, so K bounds the paper's work *split* but never the machine's
// parallelism. Chunk boundaries cannot change results: every point is
// evaluated independently and written to its own slot (and the Plan
// contract requires block results to match point-wise evaluation bit
// for bit).
func (en *engine) evaluateAndSend(ctx context.Context, round int, ranges []assignment) error {
	var held HeldSends
	parts := 1
	if w := en.pool.Width(); w > len(ranges) {
		parts = (w + len(ranges) - 1) / len(ranges)
	}
	nodes := make([]*prepNode, len(ranges))
	var chunks []prepChunk
	for i, a := range ranges {
		st := &prepNode{msg: NodeShares{
			ID: a.owner, From: a.sponsor, Round: round,
			Lo: a.lo, Hi: a.hi,
			Vals: make([][][]uint64, len(en.primes)),
		}}
		if copies, _ := en.opts.Adversary.Fate(st.msg.Origin()); copies == 0 {
			continue // the network loses this message whatever it says
		}
		before := len(chunks)
		for pi := range en.primes {
			st.msg.Vals[pi] = make([][]uint64, en.w)
			for c := 0; c < en.w; c++ {
				st.msg.Vals[pi][c] = make([]uint64, a.hi-a.lo)
			}
			for _, cut := range cutRange(a.lo, a.hi, parts) {
				chunks = append(chunks, prepChunk{node: i, prime: pi, lo: cut[0], hi: cut[1]})
			}
		}
		st.remaining.Store(int32(len(chunks) - before))
		nodes[i] = st
	}
	err := en.pool.RunWeighted(ctx, len(chunks), en.opts.Priority, func(ti int) error {
		chk := chunks[ti]
		st := nodes[chk.node]
		start := time.Now()
		err := evaluateRangeInto(ctx, en.planner, en.primes[chk.prime], chk.lo, chk.hi, en.w,
			st.msg.Vals[chk.prime], st.msg.Lo)
		st.elapsedNS.Add(int64(time.Since(start)))
		if err != nil {
			return fmt.Errorf("node %d: %w", st.msg.Origin(), err)
		}
		en.opts.Progress.pointsDone.Add(int64(chk.hi - chk.lo))
		if st.remaining.Add(-1) == 0 {
			// Last chunk of this message: it is complete (every
			// other chunk's write happened-before the counter
			// reached zero), broadcast it.
			st.msg.Elapsed = time.Duration(st.elapsedNS.Load())
			copies, delay := en.opts.Adversary.Apply(&st.msg, en.primes, en.k)
			return Deliver(ctx, en.tr.Send, st.msg, copies, delay, &held)
		}
		return nil
	})
	if err != nil {
		// The held deliveries end with the round's send context, which
		// the caller cancels once this failure has ended the gather.
		return err
	}
	// Conclude the held deliveries before the caller announces
	// SendsDone, and fail the round with the first of them that failed,
	// as a blocking Send would have.
	return held.Wait()
}

// Deliver is how a sender acts on Adversary.Apply's verdict for m:
// copies sends through send, at once or, when delay > 0, after the
// delay on a goroutine held counts. A held copy holds the message, not
// the sender, and is abandoned when ctx ends, which is how the end of
// its round keeps it out of a later round's gather. The engine's pool
// and a remote worker both deliver through it.
func Deliver(ctx context.Context, send func(context.Context, NodeShares) error, m NodeShares, copies int, delay time.Duration, held *HeldSends) error {
	sendCopies := func() error {
		for range copies {
			if err := send(ctx, m); err != nil {
				return err
			}
		}
		return nil
	}
	if delay <= 0 {
		return sendCopies()
	}
	held.wg.Add(1)
	go func() {
		defer held.wg.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return
		}
		err := sendCopies()
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			held.mu.Lock()
			if held.err == nil {
				held.err = err
			}
			held.mu.Unlock()
		}
	}()
	return nil
}

// HeldSends are the deliveries Deliver holds for a delay. The zero
// value is ready to use.
type HeldSends struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error // the first failure other than the end of the send context
}

// Wait returns once every held delivery has been sent or abandoned,
// with the first that failed.
func (h *HeldSends) Wait() error {
	h.wg.Wait()
	return h.err
}

// shareShapeOK reports whether a delivered message's claimed geometry
// matches what this run assigned its sender — the precondition every
// decoder's indexing relies on: the broadcast, or one view for each of
// the K recipients.
func (en *engine) shareShapeOK(m NodeShares) bool {
	lo, hi := en.assign.Range(m.ID)
	views := [][][][]uint64{m.Vals}
	if m.Views != nil {
		views = m.Views
	}
	if m.Lo != lo || m.Hi != hi || m.Views != nil && (len(m.Views) != en.k || m.Vals != nil) {
		return false
	}
	for _, view := range views {
		if len(view) != len(en.primes) {
			return false
		}
		for _, coords := range view {
			if len(coords) != en.w {
				return false
			}
			for _, vals := range coords {
				if len(vals) != hi-lo {
					return false
				}
			}
		}
	}
	return true
}

// erasedPoints expands missing node ids into the evaluation-point
// indices they owned — the erasure set every decode passes to the
// Reed–Solomon decoder.
func (en *engine) erasedPoints(missing []int) []int {
	var out []int
	for _, id := range missing {
		lo, hi := en.assign.Range(id)
		for x := lo; x < hi; x++ {
			out = append(out, x)
		}
	}
	return out
}

// cutRange splits [lo, hi) into at most parts non-empty, contiguous,
// near-equal pieces, in order.
func cutRange(lo, hi, parts int) [][2]int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		return [][2]int{{lo, hi}}
	}
	out := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		a := lo + i*n/parts
		b := lo + (i+1)*n/parts
		if a < b {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// stageDecode is protocol step 2 (error correction during preparation):
// assemble every node's view, decode per distinct word, agree across
// words. Each of the K nodes decodes the word it received; the words are
// compared, and the pool runs one Gao decode per distinct (prime,
// coordinate, word): a word's message, corrected word and error
// locations are every one of its recipients' view, so a run whose
// messages are all broadcasts decodes primes × width words and one with
// an equivocating sender one per node. The words of one (prime,
// coordinate) must then decode to the same message. Nodes whose
// broadcasts never arrived contribute no symbols: their coordinates are
// decoded as erasures, which cost half an error each in the
// Reed–Solomon budget and are never counted as suspects.
func (en *engine) stageDecode(ctx context.Context) (*Proof, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	en.enter(StageDecode)
	// One erasure plan per prime, shared read-only by every decode: the
	// erasure set is a property of the gather, not of any received word.
	// An undecodable erasure set fails here.
	erased := en.erasedPoints(en.missing)
	plans := make([]*rs.ErasurePlan, len(en.codes))
	for pi, code := range en.codes {
		plan, err := code.ErasurePlan(erased)
		if err != nil {
			return nil, fmt.Errorf("prime %d: %w", en.primes[pi], err)
		}
		plans[pi] = plan
	}

	// byCoord[pi*w+c] are the distinct words of (prime pi, coordinate c),
	// the one holding node 0's view first.
	byCoord := make([][]*receivedWord, len(en.primes)*en.w)
	err := en.pool.RunWeighted(ctx, len(byCoord), en.opts.Priority, func(i int) error {
		byCoord[i] = en.receivedWords(i/en.w, i%en.w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	words := slices.Concat(byCoord...)

	// Suspects merge as decodes finish, and the live count is published
	// under the same lock. Decode stages run one at a time, so keeping the
	// larger of it and what an earlier round published needs no CAS.
	var mu sync.Mutex
	suspects := map[int]bool{}
	decodes := 0
	err = en.pool.RunWeighted(ctx, len(words), en.opts.Priority, func(i int) error {
		g := words[i]
		msg, corrected, locs, err := plans[g.prime].Decode(g.word)
		mu.Lock()
		decodes++
		for _, loc := range locs {
			suspects[en.assign.Owner(loc)] = true
		}
		if n := int32(len(suspects)); n > en.opts.Progress.suspects.Load() {
			en.opts.Progress.suspects.Store(n)
		}
		mu.Unlock()
		if err != nil {
			return fmt.Errorf("node %d decoding: prime %d coord %d: %w", g.recipients[0], en.primes[g.prime], g.coord, err)
		}
		g.msg, g.corrected, g.locs = msg, corrected, locs
		return nil
	})
	en.report.Decodes += decodes
	if err != nil {
		return nil, err
	}

	// Agreement: every node must have recovered the same proof, i.e. all
	// distinct words of a (prime, coordinate) the same message.
	coeffs := make(map[uint64][][]uint64, len(en.primes))
	evals := make(map[uint64][][]uint64, len(en.primes))
	for pi, q := range en.primes {
		coeffs[q] = make([][]uint64, en.w)
		evals[q] = make([][]uint64, en.w)
		for c := 0; c < en.w; c++ {
			group := byCoord[pi*en.w+c]
			for _, g := range group {
				if !slices.Equal(g.msg, group[0].msg) {
					return nil, ErrProofDisagreement
				}
				if len(g.locs) > en.report.CorruptedShares {
					en.report.CorruptedShares = len(g.locs)
				}
			}
			coeffs[q][c], evals[q][c] = group[0].msg, group[0].corrected
		}
	}
	en.report.SuspectNodes = sortedKeys(suspects)

	proof := &Proof{
		Primes: en.primes,
		Degree: en.d,
		Width:  en.w,
		Points: rs.ConsecutivePoints(en.e),
		Coeffs: coeffs,
		Evals:  evals,
	}
	en.report.ProofSymbols = proof.Size()
	return proof, nil
}

// stageVerify is protocol step 3 (independent verification): the
// randomized spot check of the decoded proof against the input. P's
// values at the challenge points were computed beside the prepare stage
// (startExpect); the stage waits for them and compares the proof with
// them, every pass with the same ones.
func (en *engine) stageVerify(ctx context.Context, proof *Proof) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	en.enter(StageVerify)
	exp, err := en.expectations(ctx)
	ok := false
	if err == nil {
		ok, err = checkProof(en.p, proof, exp)
	}
	if err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	en.report.Verified = ok
	if !ok {
		return ErrVerificationFailed
	}
	return nil
}
