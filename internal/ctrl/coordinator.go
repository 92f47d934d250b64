package ctrl

// The coordinator is the paper's compiler node as an actual network
// server: it owns a run's geometry and workload, admits worker daemons
// over the control protocol, ships them point-range manifests, and
// feeds the frames they stream back into the exact quorum-gather loop
// the in-process engine uses (core.GatherShares). To the engine it is
// just another Transport with the RemoteAssigner capability: every round
// calls AssignRanges instead of evaluating locally, and everything
// downstream is unchanged, which keeps a multi-process proof
// bit-identical to the in-process bus run.
//
// Worker slots and logical nodes are distinct populations: a run has K
// logical node ids (what decoders index by) and up to K worker slots,
// over which assignments round-robin. A frame names its owner
// (NodeShares.ID) and the logical node the worker sent it as (From, the
// manifest's sponsor), as in-process; the worker applies the manifest's
// fault record as that node. Worker faults are delivery faults: a
// worker that dies silent leaves its ranges unheard, for the grace timer
// to turn into the round's missing set; an authentication failure is
// injected in-band with its ErrAuth type intact. A worker that
// reconnects with its resume token reattaches to its slot and replays
// whatever was assigned but never delivered.

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"camelot/internal/core"
)

// Config parameterizes a Coordinator. The workload (Kind, Instance)
// is fixed per coordinator: a coordinator serves one run.
type Config struct {
	// ListenAddr is the TCP address to accept workers on; ":0" binds an
	// ephemeral loopback-reachable port (see Addr).
	ListenAddr string
	// Secret is the cluster's shared authentication secret; empty
	// disables frame authentication (loopback development mode).
	Secret []byte
	// Kind and Instance describe the workload for Assign manifests;
	// workers rebuild the problem with the builder RunWorker is given.
	Kind     string
	Instance []byte
	// MinWorkers is how many live workers the initial round waits for
	// before assigning (clamped to the run's K; default 1). Repair
	// rounds need only one.
	MinWorkers int
	// JoinTimeout bounds how long AssignRanges waits for MinWorkers
	// (default 30s).
	JoinTimeout time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = ":0"
	}
	if cfg.MinWorkers <= 0 {
		cfg.MinWorkers = 1
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 30 * time.Second
	}
	return cfg
}

// workerSlot is one of the K admission slots. conn is nil while no
// worker holds the slot (never used, or its holder died); resume is
// the token that reattaches a reconnecting holder.
type workerSlot struct {
	id        int
	used      bool
	resume    [16]byte
	conn      *wireConn
	lastRound int
}

type assignKey struct{ owner, round int }

// assignment tracks one manifest's lifecycle: which slot it is routed
// to and whether its shares, its in-band failure or its Lost report
// ever arrived. Undelivered assignments are replayed to a worker that
// (re)attaches to the slot.
type assignment struct {
	slot      int
	msg       Assign
	delivered bool
}

// Coordinator implements core.Transport and core.RemoteAssigner over the
// control protocol.
type Coordinator struct {
	k   int
	cfg Config
	ln  net.Listener
	ch  chan core.NodeShares

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	badFrames atomic.Int64

	// joined wakes waitForWorkers when publish makes a slot live. One
	// buffered token is enough: the waiter re-counts live slots on every
	// wake, so joins that coalesce into one token lose nothing.
	joined chan struct{}

	mu       sync.Mutex
	slots    []*workerSlot
	assigned map[assignKey]*assignment
	rr       int // round-robin cursor over slots for dispatch
	// round is the round AssignRanges last assigned, pending how many of
	// its assignments are undelivered; settled closes when none is: the
	// remote form of the engine's GatherSpec.SendsDone.
	round, pending int
	settled        chan struct{}
}

var (
	_ core.Transport      = (*Coordinator)(nil)
	_ core.RemoteAssigner = (*Coordinator)(nil)
)

// NewCoordinator binds the listener and starts admitting workers for a
// run of k logical nodes. The caller (or the engine, via its
// end-of-run transport teardown) must Close it.
func NewCoordinator(k int, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if k < 1 {
		return nil, fmt.Errorf("ctrl: coordinator needs k >= 1, got %d", k)
	}
	if cfg.Kind == "" {
		return nil, fmt.Errorf("ctrl: coordinator needs a workload kind")
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("ctrl: listen %s: %w", cfg.ListenAddr, err)
	}
	c := &Coordinator{
		k:   k,
		cfg: cfg,
		ln:  ln,
		// Headroom beyond one frame per node: duplicates from a
		// reconnect replay race and injected Err frames must not block
		// reader goroutines against a slow gather.
		ch:       make(chan core.NodeShares, 4*k+8),
		done:     make(chan struct{}),
		joined:   make(chan struct{}, 1),
		slots:    make([]*workerSlot, k),
		assigned: map[assignKey]*assignment{},
	}
	for i := range c.slots {
		c.slots[i] = &workerSlot{id: i}
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr is the listener's bound address — what workers -join.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// K is the run geometry the coordinator was built for.
func (c *Coordinator) K() int { return c.k }

// BadFrames reports how many malformed or unauthenticated frames the
// coordinator has dropped or converted into delivery faults.
func (c *Coordinator) BadFrames() int64 { return c.badFrames.Load() }

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		select {
		case <-c.done:
			conn.Close()
			return
		default:
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// handshakeTimeout bounds how long a freshly accepted connection may
// take to present a valid hello — half-open sockets must not pin
// goroutines.
const handshakeTimeout = 10 * time.Second

func (c *Coordinator) handleConn(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	wc := newWireConn(conn)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	_, msg, err := wc.recv()
	if err != nil {
		c.badFrames.Add(1)
		return
	}
	hello, ok := msg.(Hello)
	if !ok {
		c.badFrames.Add(1)
		wc.send(ErrorMsg{Code: CodeBadFrame, Msg: "expected hello"})
		return
	}
	slot := c.attach(hello)
	if slot == nil {
		wc.send(ErrorMsg{Code: CodeClusterFul, Msg: fmt.Sprintf("all %d worker slots are live", c.k)})
		return
	}
	var challenge [16]byte
	if _, err := rand.Read(challenge[:]); err != nil {
		wc.send(ErrorMsg{Code: CodeWorker, Msg: "coordinator entropy failure"})
		return
	}
	// The ack travels unauthenticated — the key is derived *from* its
	// challenge — and the key must be in place before the connection is
	// published for senders or reads.
	if err := wc.send(HelloAck{Worker: slot.id, Resume: slot.resume, Challenge: challenge}); err != nil {
		c.detach(slot, wc)
		return
	}
	wc.key = deriveKey(c.cfg.Secret, challenge)
	replay, open := c.publish(slot, wc)
	if !open {
		wc.send(Done{}) // the run ended during the handshake
		return
	}
	for _, msg := range replay {
		if err := wc.send(msg); err != nil {
			c.detach(slot, wc)
			return
		}
	}
	conn.SetReadDeadline(time.Time{})
	c.readLoop(slot, wc)
}

// attach resolves which slot a hello gets: its previous slot when the
// resume token matches (reconnect), otherwise the first never-used
// slot, otherwise the first dead slot (a replacement worker inherits
// the dead one's pending assignments). nil means every slot is live —
// cluster full.
func (c *Coordinator) attach(hello Hello) *workerSlot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(hello.Resume) == 16 {
		for _, s := range c.slots {
			if s.used && [16]byte(hello.Resume) == s.resume {
				return s
			}
		}
	}
	for _, s := range c.slots {
		if !s.used {
			s.used = true
			if _, err := rand.Read(s.resume[:]); err != nil {
				s.used = false
				return nil
			}
			return s
		}
	}
	for _, s := range c.slots {
		if s.conn == nil {
			return s
		}
	}
	return nil
}

// publish installs the connection on its slot (superseding any stale
// one — latest hello wins, because the old TCP connection may be a
// half-open corpse) and returns the undelivered assignments routed to
// the slot, for replay. A run waiting for workers is woken. Once Close
// has collected the live connections, nothing is installed: open is false.
func (c *Coordinator) publish(slot *workerSlot, wc *wireConn) (replay []Assign, open bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.done:
		return nil, false
	default:
	}
	if old := slot.conn; old != nil && old != wc {
		old.conn.Close()
	}
	slot.conn = wc
	select {
	case c.joined <- struct{}{}:
	default:
	}
	for _, a := range c.assigned {
		if a.slot == slot.id && !a.delivered {
			replay = append(replay, a.msg)
		}
	}
	return replay, true
}

// detach retires a connection from its slot if it still holds it. The
// slot's undelivered assignments stay in the table, deliberately silent:
// a reconnecting (or replacement) worker inherits and replays them, and
// until one does, the grace timer turns the silence into this round's
// missing set. Loss markers injected here would fail a strict run the
// instant a worker blinked, and erase ranges a rejoin was about to
// deliver.
func (c *Coordinator) detach(slot *workerSlot, wc *wireConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slot.conn == wc {
		slot.conn = nil
	}
}

// inject feeds one frame to the gather side without ever blocking past
// the coordinator's lifetime.
func (c *Coordinator) inject(m core.NodeShares) {
	select {
	case c.ch <- m:
	case <-c.done:
	}
}

// readLoop drains one authenticated worker connection. An
// authentication failure is charged in-band as a delivery fault
// against the slot's earliest undelivered assignment — the work the
// tampered connection was trusted with — so quorum runs absorb it as
// that owner's erasure and strict runs refuse with the ErrAuth type
// intact (the injected frame never crosses the wire, so errors.Is
// works). Any framing violation or connection death detaches the slot.
func (c *Coordinator) readLoop(slot *workerSlot, wc *wireConn) {
	for {
		_, msg, err := wc.recv()
		if err != nil {
			if errors.Is(err, ErrAuth) {
				c.badFrames.Add(1)
				owner, round := c.faultTarget(slot)
				c.inject(core.NodeShares{
					ID: owner, From: slot.id, Round: round,
					Err: fmt.Errorf("%w (worker slot %d)", ErrAuth, slot.id),
				})
			}
			c.detach(slot, wc)
			return
		}
		switch m := msg.(type) {
		case core.NodeShares:
			settled, ok := c.claim(slot.id, m.ID, m.From, m.Round)
			if !ok {
				// A frame for no assignment of this slot: protocol
				// violation, drop the frame but keep the (authenticated)
				// connection.
				c.badFrames.Add(1)
				continue
			}
			c.inject(m)
			if settled != nil {
				close(settled)
			}
		case Lost:
			if settled, ok := c.claim(slot.id, m.Owner, m.Sponsor, m.Round); !ok {
				c.badFrames.Add(1)
			} else if settled != nil {
				close(settled)
			}
		case ErrorMsg:
			// The worker refused its work; free the slot for a
			// replacement to inherit its assignments.
			c.detach(slot, wc)
			return
		default:
			c.badFrames.Add(1)
			c.detach(slot, wc)
			return
		}
	}
}

// faultTarget picks the (owner, round) an in-band fault frame for this
// slot should name: the slot's earliest undelivered assignment — the
// identity collectShares has not seen, so the fault is never shadowed
// by an already-delivered frame's dedup — falling back to the slot id
// at its latest round when nothing is pending.
func (c *Coordinator) faultTarget(slot *workerSlot) (owner, round int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner, round = slot.id, slot.lastRound
	best := -1
	for _, a := range c.assigned {
		if a.slot == slot.id && !a.delivered && (best < 0 || a.msg.Owner < best) {
			best = a.msg.Owner
			owner, round = a.msg.Owner, a.msg.Round
		}
	}
	return owner, round
}

// claim validates a shares frame or a Lost report against the
// assignment table: it must answer an assignment routed to exactly this
// slot and name the assignment's sponsor as its sender. A duplicate the
// fault record asked for claims it again. In-band Err frames claim the
// assignment too — a worker-side evaluation failure is a delivery
// outcome, not a hang. A claim that delivers the current round's last
// assignment returns the round's settled channel, for the caller to
// close once the frame is on the gather channel.
func (c *Coordinator) claim(slotID, owner, from, round int) (settled chan struct{}, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.assigned[assignKey{owner: owner, round: round}]
	if a == nil || a.slot != slotID || from != a.msg.Sponsor {
		return nil, false
	}
	if !a.delivered && round == c.round {
		if c.pending--; c.pending == 0 {
			settled = c.settled
		}
	}
	a.delivered = true
	return settled, true
}

// AssignRanges implements core.RemoteAssigner: wait for enough live
// workers, then round-robin each spec's manifest over them. The
// initial round (Round 0) waits for MinWorkers; repair rounds proceed
// with any single live worker — the point of a repair is that the
// original population shrank.
func (c *Coordinator) AssignRanges(ctx context.Context, specs []core.AssignSpec) error {
	need := 1
	if len(specs) > 0 && specs[0].Round == 0 {
		need = c.cfg.MinWorkers
		if need > c.k {
			need = c.k
		}
	}
	if err := c.waitForWorkers(ctx, need); err != nil {
		return err
	}
	// The round's whole table is in place, undelivered, before the first
	// manifest leaves, so no early arrival can settle the round.
	msgs := make([]Assign, len(specs))
	c.mu.Lock()
	c.pending, c.settled = len(specs), make(chan struct{})
	for i, spec := range specs {
		msgs[i] = Assign{
			Owner: spec.Owner, Sponsor: spec.Sponsor, Round: spec.Round,
			Lo: spec.Lo, Hi: spec.Hi, Width: spec.Width, K: spec.K, Primes: spec.Primes,
			Kind: c.cfg.Kind, Instance: c.cfg.Instance, Adversary: spec.Adversary,
		}
		c.round = spec.Round
		c.assigned[assignKey{owner: spec.Owner, round: spec.Round}] = &assignment{slot: -1, msg: msgs[i]}
	}
	c.mu.Unlock()
	for _, msg := range msgs {
		if err := c.dispatch(msg); err != nil {
			return err
		}
	}
	return nil
}

// waitForWorkers blocks until need slots are live, re-counting each time
// publish signals a join, until the join timeout lapses or ctx/Close
// ends the wait.
func (c *Coordinator) waitForWorkers(ctx context.Context, need int) error {
	deadline := time.NewTimer(c.cfg.JoinTimeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		live := 0
		for _, s := range c.slots {
			if s.conn != nil {
				live++
			}
		}
		c.mu.Unlock()
		if live >= need {
			return nil
		}
		select {
		case <-c.joined:
		case <-deadline.C:
			return fmt.Errorf("ctrl: %d worker(s) joined within %v, need %d", live, c.cfg.JoinTimeout, need)
		case <-ctx.Done():
			return ctx.Err()
		case <-c.done:
			return fmt.Errorf("ctrl: coordinator closed while waiting for workers")
		}
	}
}

// dispatch routes one manifest to the next live slot (round-robin) and
// sends it, failing over to the next live slot when a send reveals a
// dead connection. It errors only when no slot is live at all.
func (c *Coordinator) dispatch(msg Assign) error {
	for {
		c.mu.Lock()
		var slot *workerSlot
		for i := 0; i < c.k; i++ {
			s := c.slots[(c.rr+i)%c.k]
			if s.conn != nil {
				slot = s
				c.rr = (c.rr + i + 1) % c.k
				break
			}
		}
		if slot == nil {
			c.mu.Unlock()
			return fmt.Errorf("ctrl: no live worker to assign node %d round %d", msg.Owner, msg.Round)
		}
		wc := slot.conn
		c.assigned[assignKey{owner: msg.Owner, round: msg.Round}].slot = slot.id
		if msg.Round > slot.lastRound {
			slot.lastRound = msg.Round
		}
		c.mu.Unlock()
		if err := wc.send(msg); err != nil {
			c.detach(slot, wc)
			continue
		}
		return nil
	}
}

// Send implements core.Transport. A coordinator's engine never sends
// locally — evaluation happens on workers — so a call here means it
// was constructed for a run that could not use it (and names why).
func (c *Coordinator) Send(ctx context.Context, m core.NodeShares) error {
	return fmt.Errorf("ctrl: coordinator transport evaluates remotely; local Send is not supported")
}

// Gather implements core.Transport: the strict form of GatherQuorum.
// In-band faults count as arrivals — collectShares then surfaces the
// first one (an ErrAuth-wrapped one included) as a typed refusal. A
// worker that dies silently *with no outstanding assignment* cannot be
// distinguished from a slow one, so strict remote runs lean on ctx for
// total-silence deadlines; quorum mode is the fault-tolerant path.
func (c *Coordinator) Gather(ctx context.Context, k int) ([]core.NodeShares, error) {
	return c.GatherQuorum(ctx, core.GatherSpec{K: k, Quorum: k, Strict: true})
}

// GatherQuorum implements core.Transport with exactly the engine's
// shared gather loop, given the round's settled channel as SendsDone. A
// worker that dies silent keeps its round unsettled; injected fault
// frames count as arrivals, so grace timing still converges on a dying
// cluster.
func (c *Coordinator) GatherQuorum(ctx context.Context, spec core.GatherSpec) ([]core.NodeShares, error) {
	c.mu.Lock()
	if spec.SendsDone == nil && spec.Round == c.round {
		spec.SendsDone = c.settled
	}
	c.mu.Unlock()
	return core.GatherShares(ctx, c.ch, spec)
}

// closeLinger bounds how long Close waits for a worker told Done to
// hang up.
const closeLinger = 2 * time.Second

// Close implements core.Transport: stop admitting, best-effort Done to
// live workers so daemons exit cleanly, and wait for every goroutine.
// Each connection is half-closed after its Done and read until the
// worker hangs up (or closeLinger passes): a full close while a worker's
// frame arrives resets the connection, and can discard the Done queued
// ahead of the reset. Idempotent; the engine calls it when the run ends.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.ln.Close()
		c.mu.Lock()
		conns := make([]*wireConn, 0, c.k)
		for _, s := range c.slots {
			if s.conn != nil {
				conns = append(conns, s.conn)
				s.conn = nil
			}
		}
		c.mu.Unlock()
		for _, wc := range conns {
			wc.send(Done{}) // best-effort, bounded by sendTimeout
			if tc, ok := wc.conn.(interface{ CloseWrite() error }); ok && tc.CloseWrite() == nil {
				wc.conn.SetReadDeadline(time.Now().Add(closeLinger))
			} else {
				wc.conn.Close()
			}
		}
		c.wg.Wait()
	})
}
