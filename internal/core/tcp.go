package core

// TCPTransport carries NodeShares over real sockets behind the same
// Transport contract the in-memory bus satisfies. One instance plays
// both roles of a loopback cluster: the collector side binds a listener
// at construction (so senders can connect before the gather starts),
// accepts connections, and feeds decoded frames into the shared
// quorum-gather loop; the sender side dials that listener per message
// with bounded retry and backoff. Runs whose senders live in other
// processes use the control protocol (internal/ctrl) instead.
//
// Failure philosophy: a socket can lose, truncate, or corrupt frames,
// so the TCP path changes no engine semantics — a message that never
// decodes simply never arrives, the collector reports the sender
// missing, and the decode stage erases its coordinates under the
// MaxErasures/GatherGrace budget exactly as for any other delivery
// fault. Malformed frames are counted (BadFrames) and cost the peer
// its connection, never an allocation beyond the bytes received.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// TCPConfig parameterizes a TCPTransport.
type TCPConfig struct {
	// ListenAddr is the address the collector binds and the senders
	// dial; ":0" (or "127.0.0.1:0") picks an ephemeral port. Required.
	ListenAddr string
}

// A sender dials with bounded patience: the collector is in this
// process and already listening, so a failed dial means a backlog
// overflow or a listener mid-teardown, and a few doubling retries
// outlast both.
const (
	tcpDialTimeout  = 2 * time.Second
	tcpRetryBackoff = 50 * time.Millisecond
	tcpDialRetries  = 4
)

// TCPTransport is a Transport whose messages travel length-prefixed
// binary frames over TCP. Safe for concurrent Send calls;
// Gather/GatherQuorum must be called from a single collector goroutine
// (the engine's). Close shuts it down: the listener closes, reader
// connections close, and any straggler's Send completes as a no-op —
// the run no longer wants the message.
type TCPTransport struct {
	k  int
	ln net.Listener
	ch chan NodeShares

	done      chan struct{}
	stop      sync.Once
	wg        sync.WaitGroup
	mu        sync.Mutex
	conns     map[net.Conn]bool
	badFrames atomic.Int64
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport builds a transport for a run of k nodes. It binds
// immediately (retrying briefly on "address in use", so back-to-back
// runs can share one fixed port) and starts accepting; construction
// failure means the collector cannot exist and is returned as an error.
func NewTCPTransport(k int, cfg TCPConfig) (*TCPTransport, error) {
	if k < 1 {
		k = 1
	}
	if cfg.ListenAddr == "" {
		return nil, errors.New("core: tcp transport needs a ListenAddr")
	}
	ln, err := listenWithRetry(cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("core: tcp listen %s: %w", cfg.ListenAddr, err)
	}
	t := &TCPTransport{
		k:  k,
		ln: ln,
		// Headroom for duplicated deliveries: a sender's duplicates must never
		// wedge a reader.
		ch:    make(chan NodeShares, 2*k+2),
		done:  make(chan struct{}),
		conns: make(map[net.Conn]bool),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// listenWithRetry binds addr, retrying briefly when the previous run's
// listener on a fixed port is still tearing down. Concurrent runs on
// one fixed port still conflict — use ":0" (or per-run addresses) when
// runs overlap.
func listenWithRetry(addr string) (net.Listener, error) {
	backoff := 100 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		// errors.Is catches the errno portably; the string match is a
		// fallback for wrapped errors that lose it.
		if !errors.Is(err, syscall.EADDRINUSE) && !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

// Addr returns the address senders dial: what the listener actually
// bound, which is what makes ephemeral ":0" ports work.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// BadFrames reports how many connections were dropped for malformed
// frames — wrong magic, implausible geometry, oversized or short body.
func (t *TCPTransport) BadFrames() int64 { return t.badFrames.Load() }

// acceptLoop hands each inbound connection to its own reader
// goroutine; it ends when Close closes the listener.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		select {
		case <-t.done:
			// Close already swept the conns map; a connection
			// registered now would never be closed and its reader
			// would hang Close() forever. Turn it away instead.
			t.mu.Unlock()
			conn.Close()
			continue
		default:
		}
		t.conns[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readConn(conn)
	}
}

// readConn decodes frames off one connection into the collector
// channel until the stream ends, the transport shuts down, or a
// malformed frame makes the stream untrustworthy.
func (t *TCPTransport) readConn(conn net.Conn) {
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		conn.Close()
		t.wg.Done()
	}()
	for {
		payload, err := ReadFrame(conn, MaxFrameBytes)
		if err != nil {
			// A clean EOF or a died connection is a delivery fault the
			// quorum gather absorbs; only protocol violations count as
			// bad frames. Either way the connection is done — past a
			// framing error the stream cannot be resynchronized.
			if errors.Is(err, ErrBadFrame) {
				t.badFrames.Add(1)
			}
			return
		}
		m, err := DecodeNodeShares(payload)
		if err != nil {
			t.badFrames.Add(1)
			return
		}
		if m.ID < 0 || m.ID >= t.k || m.From < 0 || m.From >= t.k {
			// A sender (or claimed repair sponsor) this run never had:
			// feeding it through would fail the whole gather as a
			// protocol violation, but over a socket it is just a
			// hostile or misrouted peer — cost it the connection, not
			// the run. (The engine additionally validates each claimed
			// shape against the run geometry.)
			t.badFrames.Add(1)
			return
		}
		select {
		case t.ch <- m:
		case <-t.done:
			return
		}
	}
}

// Send implements Transport: encode, dial the collector (retrying with
// backoff), write one frame, close. Cancelling ctx aborts a blocked dial
// or write; after Close, Send completes as a no-op.
func (t *TCPTransport) Send(ctx context.Context, m NodeShares) error {
	payload, err := EncodeNodeShares(m)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrameBytes {
		// The receiver enforces the same cap, so a larger frame would
		// be "sent" successfully and silently dropped on arrival —
		// fail here with the real cause instead.
		return fmt.Errorf("core: tcp send from node %d: frame is %d bytes, cap %d",
			m.ID, len(payload), MaxFrameBytes)
	}
	backoff := tcpRetryBackoff
	var lastErr error
	for attempt := 0; attempt <= tcpDialRetries; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-t.done:
				timer.Stop()
				return nil
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
			backoff *= 2
		}
		select {
		case <-t.done:
			return nil
		default:
		}
		err := t.sendOnce(ctx, payload)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("core: tcp send from node %d to %s failed after %d attempts: %w",
		m.ID, t.Addr(), tcpDialRetries+1, lastErr)
}

// sendOnce is one dial+write attempt. A per-connection watchdog
// goroutine forces the deadline when the run is cancelled or the
// transport shuts down, so a write blocked on a dead collector cannot
// outlive either.
func (t *TCPTransport) sendOnce(ctx context.Context, payload []byte) error {
	d := net.Dialer{Timeout: tcpDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", t.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.SetDeadline(time.Now())
		case <-t.done:
			conn.SetDeadline(time.Now())
		case <-stop:
		}
	}()
	return WriteFrame(conn, payload)
}

// Gather implements Transport.
func (t *TCPTransport) Gather(ctx context.Context, k int) ([]NodeShares, error) {
	return t.GatherQuorum(ctx, GatherSpec{K: k, Quorum: k, Strict: true})
}

// GatherQuorum implements Transport over the collector channel — the
// same loop every in-memory transport uses, so MaxErasures and
// GatherGrace behave identically over a socket. The listener and reader
// connections outlive the gather: a repair round's frames arrive on
// existing or fresh connections alike.
func (t *TCPTransport) GatherQuorum(ctx context.Context, spec GatherSpec) ([]NodeShares, error) {
	return GatherShares(ctx, t.ch, spec)
}

// Close implements Transport: listener closed, reader connections
// closed, stragglers' Send released as no-ops, and the accept and
// reader goroutines waited for. Idempotent.
func (t *TCPTransport) Close() {
	t.stop.Do(func() {
		close(t.done)
		t.ln.Close()
		t.mu.Lock()
		for conn := range t.conns {
			conn.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
}

// NewTCPFactory adapts NewTCPTransport to the TransportFactory shape.
func NewTCPFactory(cfg TCPConfig) TransportFactory {
	return func(k int) (Transport, error) {
		t, err := NewTCPTransport(k, cfg)
		if err != nil {
			return nil, err
		}
		return t, nil
	}
}
