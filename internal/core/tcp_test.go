package core

// TCPTransport tests: full engine runs over loopback sockets (strict
// and quorum gathers, with and without lost broadcasts), the dial- and
// listen-retry paths, the malformed-frame trust boundary, and
// Close/cancellation hygiene.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// tcpLoopback builds an ephemeral loopback collector transport.
func tcpLoopback(t testing.TB, k int) *TCPTransport {
	t.Helper()
	tr, err := NewTCPTransport(k, TCPConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("tcp transport: %v", err)
	}
	return tr
}

// TestTCPRunMatchesBus is the acceptance gate: the same seed and
// problem over loopback TCP must produce a proof bit-identical to the
// in-memory bus run — the transport cannot touch the mathematics.
func TestTCPRunMatchesBus(t *testing.T) {
	ctx := context.Background()
	p := testProblem()
	busProof, _, err := Run(ctx, p, Options{Nodes: 6, FaultTolerance: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tcpProof, rep, err := Run(ctx, p, Options{
		Nodes: 6, FaultTolerance: 3, Seed: 9,
		NewTransport: func(k int) (Transport, error) { return tcpLoopback(t, k), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("tcp run not verified")
	}
	if err := proofsEqual(busProof, tcpProof); err != nil {
		t.Fatalf("tcp proof differs from bus proof: %v", err)
	}
}

// TestTCPQuorumWithLoss drives the erasure path over real sockets: two
// nodes' frames never reach the socket and the quorum gather plus
// erasure decode must still recover the identical proof.
func TestTCPQuorumWithLoss(t *testing.T) {
	ctx := context.Background()
	p := testProblem()
	baseline, _, err := Run(ctx, p, Options{Nodes: 8, FaultTolerance: 4})
	if err != nil {
		t.Fatal(err)
	}
	proof, rep, err := Run(ctx, p, Options{
		Nodes: 8, FaultTolerance: 4, MaxErasures: 2, GatherGrace: 2 * time.Second,
		Adversary:    Adversary{DropNodes: []int{2, 5}},
		NewTransport: func(k int) (Transport, error) { return tcpLoopback(t, k), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(rep.MissingNodes, []int{2, 5}) {
		t.Fatalf("MissingNodes = %v, want [2 5]", rep.MissingNodes)
	}
	if err := proofsEqual(baseline, proof); err != nil {
		t.Fatalf("tcp proof with losses differs: %v", err)
	}
}

// TestTCPSendRetriesUntilCollectorUp takes the listener away behind the
// transport's back and brings one up on the same address only after
// Send has started dialing: the dial-retry loop must bridge the gap.
func TestTCPSendRetriesUntilCollectorUp(t *testing.T) {
	tr := tcpLoopback(t, 1)
	defer tr.Close()
	addr := tr.Addr()
	tr.ln.Close()

	got := make(chan NodeShares, 1)
	go func() {
		defer close(got)
		time.Sleep(150 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		payload, err := ReadFrame(conn, MaxFrameBytes)
		if err != nil {
			return
		}
		if m, err := DecodeNodeShares(payload); err == nil {
			got <- m
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tr.Send(ctx, NodeShares{ID: 0, Lo: 0, Hi: 1, Vals: [][][]uint64{{{42}}}}); err != nil {
		t.Fatalf("send with late collector: %v", err)
	}
	m, ok := <-got
	if !ok {
		t.Fatal("late listener failed to bind the address or read the frame")
	}
	if m.ID != 0 || m.Vals[0][0][0] != 42 {
		t.Fatalf("received %+v", m)
	}
}

// TestTCPSendFailsTyped pins the giving-up path: nothing listens
// anymore, so Send must return the dial failure after its bounded
// retries rather than hang.
func TestTCPSendFailsTyped(t *testing.T) {
	tr := tcpLoopback(t, 1)
	defer tr.Close()
	tr.ln.Close()
	err := tr.Send(context.Background(), NodeShares{ID: 0, Lo: 0, Hi: 0})
	if err == nil {
		t.Fatal("send to dead address succeeded")
	}
}

// TestTCPListenRetriesAddressInUse: back-to-back runs may share one
// fixed port, so a constructor that finds the previous run's listener
// still bound must wait it out rather than fail.
func TestTCPListenRetriesAddressInUse(t *testing.T) {
	first := tcpLoopback(t, 1)
	addr := first.Addr()
	go func() {
		time.Sleep(150 * time.Millisecond)
		first.Close()
	}()
	second, err := NewTCPTransport(1, TCPConfig{ListenAddr: addr})
	if err != nil {
		t.Fatalf("bind behind a closing listener: %v", err)
	}
	defer second.Close()
	if second.Addr() != addr {
		t.Fatalf("bound %s, want %s", second.Addr(), addr)
	}
}

// TestTCPMalformedFramesCostTheConnection writes garbage and an
// oversized length claim straight onto raw connections: the collector
// must count them, drop those connections, and still gather the honest
// sender's message.
func TestTCPMalformedFramesCostTheConnection(t *testing.T) {
	tr := tcpLoopback(t, 2)
	defer tr.Close()
	addr := tr.Addr()

	// Connection 1: a frame whose payload is garbage.
	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(c1, []byte("not a NodeShares payload")); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	// Connection 2: a length prefix claiming far beyond the cap; the
	// reader must reject on the claim, never allocate it.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Write([]byte{0xFF, 0xFF, 0xFF, 0x3F}); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// The rejections record asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for tr.BadFrames() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := tr.BadFrames(); got != 2 {
		t.Fatalf("BadFrames = %d, want 2", got)
	}

	// The honest sender still gets through on its own connection.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tr.Send(ctx, NodeShares{ID: 1, Lo: 0, Hi: 1, Vals: [][][]uint64{{{7}}}}); err != nil {
		t.Fatal(err)
	}
	msgs, err := tr.GatherQuorum(ctx, GatherSpec{K: 2, Quorum: 1, Grace: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	delivered, missing, err := collectShares(msgs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 1 || delivered[0].ID != 1 || !sameInts(missing, []int{0}) {
		t.Fatalf("delivered %+v missing %v", delivered, missing)
	}
}

// TestTCPInBandError carries a node-side failure over the socket: the
// collector must surface it exactly as an in-memory transport would.
func TestTCPInBandError(t *testing.T) {
	tr := tcpLoopback(t, 1)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	want := errors.New("node 0: the grail was a lie")
	if err := tr.Send(ctx, NodeShares{ID: 0, Lo: 0, Hi: 0, Err: want}); err != nil {
		t.Fatal(err)
	}
	msgs, err := tr.Gather(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := collectShares(msgs, 1, 0); err == nil || err.Error() != want.Error() {
		t.Fatalf("in-band error = %v, want %q", err, want)
	}
}

// TestTCPGatherCancellation: a gather with no senders must end with
// the context, and the transport must close cleanly after.
func TestTCPGatherCancellation(t *testing.T) {
	tr := tcpLoopback(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := tr.Gather(ctx, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	tr.Close() // must not hang or double-close anything
	// After Close a straggler's Send completes as a no-op.
	if err := tr.Send(context.Background(), NodeShares{ID: 0, Lo: 0, Hi: 0}); err != nil {
		t.Fatalf("post-shutdown send: %v", err)
	}
}

// TestTCPFactoryFailureSurfaces: a factory whose bind fails reports the
// root cause, and a run using it fails with that cause instead of
// hanging.
func TestTCPFactoryFailureSurfaces(t *testing.T) {
	factory := NewTCPFactory(TCPConfig{ListenAddr: "this is not:a bindable:address"})
	_, bindErr := factory(4)
	if bindErr == nil {
		t.Fatal("factory with unbindable address returned no error")
	}
	_, _, err := Run(context.Background(), testProblem(), Options{Nodes: 2, NewTransport: factory})
	if err == nil || !strings.Contains(err.Error(), bindErr.Error()) {
		t.Fatalf("run with unbindable collector: err = %v, want the bind failure %v", err, bindErr)
	}
}

// TestTCPUnknownSenderCostsTheConnection: a frame naming a node the
// run never had must be filtered at the transport — feeding it through
// would fail the whole gather as a protocol violation, handing any
// peer that can reach the port a one-frame kill switch.
func TestTCPUnknownSenderCostsTheConnection(t *testing.T) {
	tr := tcpLoopback(t, 2)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A well-formed frame from "node 7" of a 2-node run. The filter
	// records it asynchronously.
	if err := tr.Send(ctx, NodeShares{ID: 7, Lo: 0, Hi: 1, Vals: [][][]uint64{{{1}}}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.BadFrames() < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := tr.BadFrames(); got != 1 {
		t.Fatalf("BadFrames = %d, want 1", got)
	}
	if err := tr.Send(ctx, NodeShares{ID: 1, Lo: 0, Hi: 1, Vals: [][][]uint64{{{2}}}}); err != nil {
		t.Fatal(err)
	}
	msgs, err := tr.GatherQuorum(ctx, GatherSpec{K: 2, Quorum: 1, Grace: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	delivered, missing, err := collectShares(msgs, 2, 0)
	if err != nil {
		t.Fatalf("forged id reached collectShares: %v", err)
	}
	if len(delivered) != 1 || delivered[0].ID != 1 || !sameInts(missing, []int{0}) {
		t.Fatalf("delivered %+v missing %v", delivered, missing)
	}
}
