package ctrl

// End-to-end tests of the control protocol against the real engine:
// in-process goroutine "daemons" (the multi-OS-process variant lives
// in examples/multiproc and CI) driving coordinator transports through
// core.Run, plus hand-rolled fake workers for the protocol edges a
// well-behaved daemon never exercises — reconnect-with-resume and
// authentication tampering.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"camelot/internal/core"
)

// polyProblem is a minimal deterministic workload: one proof
// polynomial P(x) = Σ_{i=0..d} ((salt+i) mod q) x^i, kind "ctrl-poly"
// with instance encoding "d=N salt=S" (parsePolyInstance).
type polyProblem struct {
	d    int
	salt uint64
}

func (p polyProblem) Name() string       { return "ctrl-poly" }
func (p polyProblem) Width() int         { return 1 }
func (p polyProblem) Degree() int        { return p.d }
func (p polyProblem) MinModulus() uint64 { return 1 << 10 }
func (p polyProblem) NumPrimes() int     { return 2 }
func (p polyProblem) Evaluate(q, x uint64) ([]uint64, error) {
	var acc uint64
	for i := p.d; i >= 0; i-- {
		acc = (acc*x + (p.salt+uint64(i))%q) % q
	}
	return []uint64{acc}, nil
}

func parsePolyInstance(kind string, instance []byte) (core.Problem, error) {
	if kind != "ctrl-poly" {
		return nil, fmt.Errorf("ctrl: unknown problem kind %q", kind)
	}
	var p polyProblem
	if _, err := fmt.Sscanf(string(instance), "d=%d salt=%d", &p.d, &p.salt); err != nil {
		return nil, fmt.Errorf("ctrl-poly instance %q: %w", instance, err)
	}
	if p.d < 0 || p.d > 1<<12 {
		return nil, fmt.Errorf("ctrl-poly instance %q: bad degree", instance)
	}
	return p, nil
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// runBus is the in-process reference run every remote test compares
// against, bit for bit.
func runBus(t *testing.T, p core.Problem, opts core.Options) []byte {
	t.Helper()
	proof, _, err := core.Run(testCtx(t), p, opts)
	if err != nil {
		t.Fatalf("bus run: %v", err)
	}
	return marshal(t, proof)
}

func marshal(t *testing.T, proof *core.Proof) []byte {
	t.Helper()
	raw, err := proof.MarshalBinary()
	if err != nil {
		t.Fatalf("proof marshal: %v", err)
	}
	return raw
}

// TestRemoteRepairHealsKilledWorker: three workers, one rigged to die
// the moment round 0 assigns it node 1; the missing range must come
// back through a repair-round re-assignment to a survivor, and the
// healed proof must still be bit-identical.
func TestRemoteRepairHealsKilledWorker(t *testing.T) {
	p := polyProblem{d: 8, salt: 3}
	instance := []byte("d=8 salt=3")
	busRaw := runBus(t, p, core.Options{Nodes: 3, Seed: 7})

	co, err := NewCoordinator(3, Config{
		Kind: "ctrl-poly", Instance: instance,
		MinWorkers: 3, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	var wg sync.WaitGroup
	werrs := make([]error, 3)
	for i := range werrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every worker carries the same kill switch: which slot
			// draws node 1 is a join-order race, and only that one dies.
			werrs[i] = RunWorker(wctx, WorkerConfig{Join: co.Addr(), FailOwner: 1}, parsePolyInstance)
		}(i)
	}
	proof, report, err := core.Run(testCtx(t), p, core.Options{
		Nodes: 3, Seed: 7,
		MaxErasures: 1, GatherGrace: 750 * time.Millisecond, MaxRepairRounds: 2,
		NewTransport: func(k int) (core.Transport, error) { return co, nil },
	})
	if err != nil {
		t.Fatalf("remote run with churn: %v", err)
	}
	wg.Wait()
	injected := 0
	for i, werr := range werrs {
		if errors.Is(werr, ErrFailInjected) {
			injected++
		} else if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if injected != 1 {
		t.Errorf("%d workers died of the injected fault, want exactly 1", injected)
	}
	if report.RepairRounds < 1 {
		t.Errorf("RepairRounds = %d, want >= 1", report.RepairRounds)
	}
	if len(report.RepairedNodes) != 1 || report.RepairedNodes[0] != 1 {
		t.Errorf("RepairedNodes = %v, want [1]", report.RepairedNodes)
	}
	if len(report.MissingNodes) != 0 {
		t.Errorf("MissingNodes = %v after repair, want none", report.MissingNodes)
	}
	if got := marshal(t, proof); !bytes.Equal(got, busRaw) {
		t.Error("healed proof differs from bus proof")
	}
}

// TestRemoteFaultRecordParity: a manifest's delivery faults end a remote
// run as they end the in-process one — a held frame arrives, or is
// erased once its round is over; a lost one is reported, so a round that
// hears nothing still ends — and every worker returns on Done, whatever
// it still holds.
func TestRemoteFaultRecordParity(t *testing.T) {
	p := polyProblem{d: 11, salt: 5}
	for i, opts := range []core.Options{
		{Adversary: core.Adversary{DelayRate: 1, MaxDelay: 20 * time.Millisecond}},
		// Seed 2 holds node 3's frame for most of an hour.
		{FaultTolerance: 4, MaxErasures: 1, GatherGrace: 300 * time.Millisecond,
			Adversary: core.Adversary{Seed: 2, DelayRate: 0.3, MaxDelay: time.Hour}},
		{Adversary: core.Adversary{DropNodes: []int{2}}},
		{MaxErasures: 1, GatherGrace: 300 * time.Millisecond, Adversary: core.Adversary{DropRate: 1}},
	} {
		opts.Nodes = 4
		want, _, wantErr := core.Run(testCtx(t), p, opts)
		co, err := NewCoordinator(4, Config{Kind: "ctrl-poly", Instance: []byte("d=11 salt=5"), MinWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := RunWorker(testCtx(t), WorkerConfig{Join: co.Addr()}, parsePolyInstance); err != nil {
					t.Errorf("record %d: worker: %v", i, err)
				}
			}()
		}
		opts.NewTransport = func(int) (core.Transport, error) { return co, nil }
		got, _, err := core.Run(testCtx(t), p, opts)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && !bytes.Equal(marshal(t, got), marshal(t, want)) {
			t.Errorf("record %d: remote run ended with %v, in-process with %v, or the proofs differ", i, err, wantErr)
		}
		wg.Wait()
	}
}

// fakeWorker hand-drives the wire protocol, for the edges a real
// daemon hides: partial delivery, abrupt drops, resume handshakes, and
// deliberately bad MACs.
type fakeWorker struct {
	t    *testing.T
	conn net.Conn
	wc   *wireConn
	ack  HelloAck
}

func dialFake(t *testing.T, addr string, secret, resume []byte) *fakeWorker {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("fake worker dial: %v", err)
	}
	wc := newWireConn(conn)
	if err := wc.send(Hello{Resume: resume}); err != nil {
		t.Fatalf("fake worker hello: %v", err)
	}
	_, msg, err := wc.recv()
	if err != nil {
		t.Fatalf("fake worker helloAck: %v", err)
	}
	ack, ok := msg.(HelloAck)
	if !ok {
		t.Fatalf("fake worker: expected HelloAck, got %T: %+v", msg, msg)
	}
	wc.key = deriveKey(secret, ack.Challenge)
	return &fakeWorker{t: t, conn: conn, wc: wc, ack: ack}
}

func (f *fakeWorker) recvAssign() Assign {
	f.t.Helper()
	f.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, msg, err := f.wc.recv()
	if err != nil {
		f.t.Fatalf("fake worker recv assign: %v", err)
	}
	a, ok := msg.(Assign)
	if !ok {
		f.t.Fatalf("fake worker: expected Assign, got %T: %+v", msg, msg)
	}
	return a
}

func (f *fakeWorker) sendShares(ctx context.Context, p core.Problem, a Assign) {
	f.t.Helper()
	shares, err := core.NewPlanner(p).EvaluateShares(ctx, a.Primes, a.Owner, a.Sponsor, a.Round, a.Lo, a.Hi)
	if err != nil {
		f.t.Fatalf("fake worker evaluate: %v", err)
	}
	if err := f.wc.send(shares); err != nil {
		f.t.Fatalf("fake worker send shares: %v", err)
	}
}

// waitDelivered polls the coordinator's assignment table until the
// round-0 assignment for owner is marked delivered.
func waitDelivered(t *testing.T, co *Coordinator, owner int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		co.mu.Lock()
		a := co.assigned[assignKey{owner: owner, round: 0}]
		done := a != nil && a.delivered
		co.mu.Unlock()
		if done {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("owner %d shares never credited as delivered", owner)
}

// TestRemoteReconnectResume: a worker delivers half its work, drops,
// and rejoins with its resume token; the coordinator must replay
// exactly the undelivered assignment and the strict run must complete
// as if nothing happened.
func TestRemoteReconnectResume(t *testing.T) {
	ctx := testCtx(t)
	p := polyProblem{d: 7, salt: 23}
	instance := []byte("d=7 salt=23")
	secret := []byte("resume-secret")
	busRaw := runBus(t, p, core.Options{Nodes: 2, Seed: 5})

	co, err := NewCoordinator(2, Config{
		Kind: "ctrl-poly", Instance: instance, Secret: secret,
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		proof *core.Proof
		err   error
	}
	runDone := make(chan result, 1)
	go func() {
		proof, _, err := core.Run(ctx, p, core.Options{
			Nodes: 2, Seed: 5,
			NewTransport: func(k int) (core.Transport, error) { return co, nil },
		})
		runDone <- result{proof, err}
	}()

	fw := dialFake(t, co.Addr(), secret, nil)
	a0, a1 := fw.recvAssign(), fw.recvAssign()
	if a0.Owner != 0 || a1.Owner != 1 {
		t.Fatalf("assignments owners (%d, %d), want (0, 1)", a0.Owner, a1.Owner)
	}
	if a0.Kind != "ctrl-poly" || !bytes.Equal(a0.Instance, instance) {
		t.Fatalf("assignment manifest (%q, %q) does not match workload", a0.Kind, a0.Instance)
	}
	fw.sendShares(ctx, p, a0)
	// The drop must happen after the coordinator has credited owner 0's
	// delivery, or the replay set races to include both owners (white-box
	// peek: the test lives in package ctrl).
	waitDelivered(t, co, 0)
	resume := fw.ack.Resume
	fw.conn.Close() // abrupt drop, owner 1 undelivered

	fw2 := dialFake(t, co.Addr(), secret, resume[:])
	if fw2.ack.Worker != fw.ack.Worker {
		t.Fatalf("resume landed on slot %d, want original slot %d", fw2.ack.Worker, fw.ack.Worker)
	}
	replayed := fw2.recvAssign()
	if replayed.Owner != 1 || replayed.Round != 0 {
		t.Fatalf("replayed assignment (owner %d, round %d), want (1, 0)", replayed.Owner, replayed.Round)
	}
	fw2.sendShares(ctx, p, replayed)

	res := <-runDone
	if res.err != nil {
		t.Fatalf("strict run across reconnect: %v", res.err)
	}
	if got := marshal(t, res.proof); !bytes.Equal(got, busRaw) {
		t.Error("resumed proof differs from bus proof")
	}
	fw2.conn.Close()
}

// corkedConn holds back everything written to it, so a test can put
// several frames on the wire in a single write of buf.
type corkedConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *corkedConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// sendTampered writes a shares-shaped frame whose MAC is garbage,
// bypassing wireConn's honest MAC computation.
func (f *fakeWorker) sendTampered(seq uint64) {
	f.t.Helper()
	body, err := core.EncodeNodeShares(core.NodeShares{ID: 0, From: f.ack.Worker, Round: 0, Lo: 0, Hi: 0})
	if err != nil {
		f.t.Fatal(err)
	}
	payload := EncodeControl(Frame{Tag: TagShares, Seq: seq, MAC: make([]byte, macSize), Body: body})
	if err := core.WriteFrame(f.conn, payload); err != nil {
		f.t.Fatalf("fake worker write tampered frame: %v", err)
	}
}

// TestAuthTamperStrict: in strict mode a tampered frame is a typed
// refusal — the run fails and errors.Is sees ErrAuth.
func TestAuthTamperStrict(t *testing.T) {
	ctx := testCtx(t)
	p := polyProblem{d: 5, salt: 9}
	secret := []byte("tamper-secret")
	co, err := NewCoordinator(2, Config{
		Kind: "ctrl-poly", Instance: []byte("d=5 salt=9"), Secret: secret,
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() {
		_, _, err := core.Run(ctx, p, core.Options{
			Nodes: 2, Seed: 1,
			NewTransport: func(k int) (core.Transport, error) { return co, nil },
		})
		runDone <- err
	}()
	fw := dialFake(t, co.Addr(), secret, nil)
	a0, _ := fw.recvAssign(), fw.recvAssign()
	fw.sendShares(ctx, p, a0) // seq 1: one honest delivery
	fw.sendTampered(2)        // then a forged frame
	err = <-runDone
	if err == nil {
		t.Fatal("strict run accepted a tampered frame")
	}
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("strict refusal not typed ErrAuth: %v", err)
	}
	if co.BadFrames() == 0 {
		t.Error("tampered frame not counted")
	}
}

// TestAuthTamperQuorum: the same tampering under MaxErasures is the
// owner's delivery fault — absorbed as an erasure, run verifies, proof
// bit-identical.
func TestAuthTamperQuorum(t *testing.T) {
	ctx := testCtx(t)
	p := polyProblem{d: 5, salt: 9}
	instance := []byte("d=5 salt=9")
	secret := []byte("tamper-secret")
	// Losing one of two nodes erases half the code length e = d+1+2f, so
	// erasure-only decoding needs 2f >= d+1: f=3 for d=5.
	busRaw := runBus(t, p, core.Options{Nodes: 2, Seed: 1, FaultTolerance: 3})

	co, err := NewCoordinator(2, Config{
		Kind: "ctrl-poly", Instance: instance, Secret: secret,
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		proof  *core.Proof
		report *core.Report
		err    error
	}
	runDone := make(chan result, 1)
	go func() {
		proof, report, err := core.Run(ctx, p, core.Options{
			Nodes: 2, Seed: 1, FaultTolerance: 3,
			MaxErasures: 1, GatherGrace: 500 * time.Millisecond,
			NewTransport: func(k int) (core.Transport, error) { return co, nil },
		})
		runDone <- result{proof, report, err}
	}()
	fw := dialFake(t, co.Addr(), secret, nil)
	a0, _ := fw.recvAssign(), fw.recvAssign()
	// Owner 0's honest share alone fills the quorum, so the run may
	// finish and close the coordinator the moment it is read. Both
	// frames therefore go out in one write: the forgery is on the wire
	// before the honest owner can release the run, never a write into a
	// closed pipe.
	cork := &corkedConn{Conn: fw.conn}
	fw.conn, fw.wc.conn = cork, cork
	fw.sendShares(ctx, p, a0) // owner 0 delivered honestly
	fw.sendTampered(2)        // owner 1's delivery is a forgery
	if _, err := cork.Conn.Write(cork.buf.Bytes()); err != nil {
		t.Fatalf("fake worker write both frames: %v", err)
	}
	res := <-runDone
	if res.err != nil {
		t.Fatalf("quorum run should absorb tampering as a delivery fault: %v", res.err)
	}
	if len(res.report.MissingNodes) != 1 || res.report.MissingNodes[0] != 1 {
		t.Errorf("MissingNodes = %v, want [1]", res.report.MissingNodes)
	}
	if got := marshal(t, res.proof); !bytes.Equal(got, busRaw) {
		t.Error("quorum proof differs from bus proof")
	}
}

// TestAssignRangesJoinWait: AssignRanges, entered before any worker has
// finished its handshake, is woken by the join itself and keeps the
// wait's three ways out — assigned, closed, timed out — as they were.
func TestAssignRangesJoinWait(t *testing.T) {
	specs := []core.AssignSpec{{Owner: 0, Round: 0, Lo: 0, Hi: 1, Width: 1, Primes: []uint64{12289}, K: 1}}
	for _, tc := range []struct {
		name        string
		minWorkers  int
		joinTimeout time.Duration
		join        bool // 50 ms into the wait one worker joins; otherwise the coordinator is closed
		wantErr     string
	}{
		{name: "late joiner is assigned", minWorkers: 1, joinTimeout: 20 * time.Second, join: true},
		{name: "close during the wait", minWorkers: 1, joinTimeout: 20 * time.Second,
			wantErr: "ctrl: coordinator closed while waiting for workers"},
		{name: "one joiner of two", minWorkers: 2, joinTimeout: 300 * time.Millisecond, join: true,
			wantErr: "ctrl: 1 worker(s) joined within 300ms, need 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, err := NewCoordinator(2, Config{
				Kind: "ctrl-poly", Instance: []byte("d=6 salt=11"),
				MinWorkers: tc.minWorkers, JoinTimeout: tc.joinTimeout,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			ctx := testCtx(t)
			errc := make(chan error, 1)
			go func() { errc <- co.AssignRanges(ctx, specs) }()
			time.Sleep(50 * time.Millisecond)
			var fw *fakeWorker
			if tc.join {
				fw = dialFake(t, co.Addr(), nil, nil)
				defer fw.conn.Close()
			} else {
				co.Close()
			}
			err = <-errc
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("AssignRanges = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("AssignRanges: %v", err)
			}
			if a := fw.recvAssign(); a.Owner != 0 || a.Round != 0 {
				t.Fatalf("late joiner was assigned %+v, want owner 0 round 0", a)
			}
		})
	}
}
