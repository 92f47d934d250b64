package ctrl

// wireConn is one control connection's framing discipline, shared by
// both ends: length-prefixed control envelopes (core.WriteFrame /
// ReadFrame), strictly sequential per-direction sequence numbers, and
// MAC enforcement once a session key exists. The sequence rule is
// deliberately rigid — the n-th frame a side sends carries seq n, and
// the receiver requires exact equality — because TCP already gives
// ordered delivery, so any gap or repeat means a broken or hostile
// peer, and binding seq into the MAC turns replayed frames into
// authentication failures instead of duplicate deliveries.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"camelot/internal/core"
)

// sendTimeout bounds how long one control frame write may block on a
// peer that stopped reading; a worker that slow is indistinguishable
// from a dead one and is treated as such by the caller.
const sendTimeout = 5 * time.Second

type wireConn struct {
	conn net.Conn

	// sendMu serializes writers (the coordinator assigns from multiple
	// goroutines) and guards sendSeq; key is written once at handshake
	// completion before any concurrent use, then read-only.
	sendMu  sync.Mutex
	sendSeq uint64
	recvSeq uint64
	key     []byte
}

func newWireConn(conn net.Conn) *wireConn { return &wireConn{conn: conn} }

// send encodes msg at this connection's next send sequence number,
// authenticated when a key has been negotiated, and writes it under a
// bounded deadline.
func (w *wireConn) send(msg any) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	payload, err := EncodeMessage(w.sendSeq, w.key, msg)
	if err != nil {
		return err
	}
	w.conn.SetWriteDeadline(time.Now().Add(sendTimeout))
	if err := core.WriteFrame(w.conn, payload); err != nil {
		return err
	}
	w.sendSeq++
	return nil
}

// recv reads, decodes, and authenticates one control frame. Sequence
// violations and malformed frames wrap ErrBadFrame (or the shares
// codec's core.ErrBadFrame); MAC failures wrap ErrAuth. Past any of
// these the stream is unusable and the caller must drop the
// connection.
func (w *wireConn) recv() (Frame, any, error) {
	payload, err := core.ReadFrame(w.conn, core.MaxFrameBytes)
	if err != nil {
		return Frame{}, nil, err
	}
	f, msg, err := DecodeControl(payload)
	if err != nil {
		return f, nil, err
	}
	if err := VerifyMAC(w.key, f); err != nil {
		return f, nil, err
	}
	if f.Seq != w.recvSeq {
		return f, nil, fmt.Errorf("%w: frame seq %d, expected %d", ErrBadFrame, f.Seq, w.recvSeq)
	}
	w.recvSeq++
	return f, msg, nil
}
