package core

// Binary serialization for NodeShares — the wire format that lets the
// prepare stage's one message kind cross a real socket. The design
// mirrors the proof format in encode.go: versioned magic, little-endian
// words, self-describing geometry. Unlike a proof, a share message is
// ephemeral and arrives from an untrusted network, so the decoder
// validates every claimed dimension against the bytes actually present
// *before* allocating — a malicious or corrupted frame must cost the
// collector an error, never gigabytes.
//
// Payload layout (every integer a little-endian uint64):
//
//	magic 'C' 'M' 'S' 3
//	id | from | round | lo | hi | elapsedNS
//	errLen | errLen bytes of in-band error text
//	nViews | nPrimes | width
//	max(nViews, 1) × nPrimes × width × (hi-lo) evaluation words,
//	[view][prime][coord][point]
//
// Version 2 added the from and round words for the self-healing gather:
// a repair-round frame names its range owner (id) and the surviving
// sponsor that actually computed and sent it (from), and the round
// number lets the collector drop stale frames from earlier gathers.
// Version 3 added nViews: 0 for a broadcast (the one block is Vals), K
// for an equivocating sender's one message (the blocks are Views, one
// per recipient). Older frames are rejected with ErrBadFrame like any
// other unknown format (see ConsumeMagic).
//
// On the stream the payload travels length-prefixed (see WriteFrame /
// ReadFrame in frame.go): a uint32 little-endian byte count, then the
// payload. The prefix is what lets a reader recover message boundaries
// from a TCP byte stream; it carries no other meaning.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// sharesMagic guards against decoding unrelated bytes; the trailing
// byte is the format version.
var sharesMagic = [4]byte{'C', 'M', 'S', 3}

// ErrBadFrame is the typed rejection of a malformed NodeShares frame:
// wrong magic, implausible geometry, a size claim the received bytes
// cannot back, or an oversized length prefix. A reader that hits it
// must drop the connection — past a bad frame the stream cannot be
// trusted to be in sync.
var ErrBadFrame = errors.New("core: malformed NodeShares frame")

// RemoteError is a node-side evaluation failure reconstructed from its
// in-band wire form. Only the message survives the socket, not the
// original error type.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Codec sanity bounds, matching the proof decoder's: a frame claiming
// more is rejected before any allocation.
const (
	maxCodecPrimes = 64
	maxCodecWidth  = 1 << 16
	maxCodecSpan   = 1 << 28 // points per node
	maxCodecErrLen = 1 << 16
	// maxCodecViews bounds an equivocator's recipients, and keeps the
	// body size below 2^63 bytes with the bounds above.
	maxCodecViews = 1 << 10
)

// EncodeNodeShares serializes m into a fresh payload buffer (without
// the stream length prefix; WriteFrame adds it).
func EncodeNodeShares(m NodeShares) ([]byte, error) {
	span := m.Hi - m.Lo
	if span < 0 || span > maxCodecSpan {
		return nil, fmt.Errorf("core: encode shares node %d: bad range [%d,%d)", m.ID, m.Lo, m.Hi)
	}
	var errText string
	if m.Err != nil {
		errText = m.Err.Error()
		if len(errText) > maxCodecErrLen {
			errText = errText[:maxCodecErrLen]
		}
	}
	views := [][][][]uint64{m.Vals}
	if m.Views != nil {
		if len(m.Views) == 0 || len(m.Views) > maxCodecViews || m.Vals != nil || span == 0 {
			return nil, fmt.Errorf("core: encode shares node %d: %d views over %d points (want 1..%d views, no Vals beside them, a range)",
				m.ID, len(m.Views), span, maxCodecViews)
		}
		views = m.Views
	}
	nPrimes := len(views[0])
	if nPrimes > maxCodecPrimes {
		return nil, fmt.Errorf("core: encode shares node %d: %d primes exceeds %d", m.ID, nPrimes, maxCodecPrimes)
	}
	width := 0
	if nPrimes > 0 {
		width = len(views[0][0])
	}
	if width > maxCodecWidth {
		return nil, fmt.Errorf("core: encode shares node %d: width %d exceeds %d", m.ID, width, maxCodecWidth)
	}
	for r, view := range views {
		if len(view) != nPrimes {
			return nil, fmt.Errorf("core: encode shares node %d: view %d has %d primes, want %d", m.ID, r, len(view), nPrimes)
		}
		for pi, coords := range view {
			if len(coords) != width {
				return nil, fmt.Errorf("core: encode shares node %d: prime %d has %d coords, want %d", m.ID, pi, len(coords), width)
			}
			for c, vals := range coords {
				if len(vals) != span {
					return nil, fmt.Errorf("core: encode shares node %d: prime %d coord %d has %d points, want %d", m.ID, pi, c, len(vals), span)
				}
			}
		}
	}
	if m.From < 0 || m.Round < 0 {
		// The decoder rejects these as implausible, so encoding them
		// would produce a frame the format disowns.
		return nil, fmt.Errorf("core: encode shares node %d: negative from=%d or round=%d", m.ID, m.From, m.Round)
	}
	// 10 header words: id, from, round, lo, hi, elapsed, errLen, nViews, nPrimes, width.
	size := len(sharesMagic) + 8*10 + len(errText) + 8*len(views)*nPrimes*width*span
	buf := make([]byte, 0, size)
	buf = append(buf, sharesMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.ID)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.From)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.Round)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.Lo)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.Hi)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(m.Elapsed)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(errText)))
	buf = append(buf, errText...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.Views)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(nPrimes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(width))
	for _, view := range views {
		for _, coords := range view {
			for _, vals := range coords {
				for _, v := range vals {
					buf = binary.LittleEndian.AppendUint64(buf, v)
				}
			}
		}
	}
	return buf, nil
}

// DecodeNodeShares parses one payload produced by EncodeNodeShares.
// Every failure wraps ErrBadFrame, and no allocation larger than the
// payload itself ever happens: each claimed dimension is checked
// against the remaining bytes first.
func DecodeNodeShares(data []byte) (NodeShares, error) {
	rest, ok := ConsumeMagic(data, sharesMagic)
	if !ok {
		return NodeShares{}, fmt.Errorf("%w: bad magic/version", ErrBadFrame)
	}
	r := NewCursor(rest, ErrBadFrame)
	// id/from/round stay strictly below 1<<31 so the int conversions
	// are exact even on 32-bit platforms; honest senders are 0..K-1 and
	// honest rounds are tiny.
	id, from, round := r.Int(1<<31-1), r.Int(1<<31-1), r.Int(1<<31-1)
	lo, hi := int64(r.Word()), int64(r.Word())
	elapsed := time.Duration(int64(r.Word()))
	errText := r.Bytes(maxCodecErrLen)
	nViews, nPrimes, width := r.Int(maxCodecViews), r.Int(maxCodecPrimes), r.Int(maxCodecWidth)
	if err := r.Err(); err != nil {
		return NodeShares{}, err
	}
	span := hi - lo
	if lo < 0 || hi < lo || span > maxCodecSpan {
		return NodeShares{}, fmt.Errorf("%w: implausible range [%d,%d)", ErrBadFrame, lo, hi)
	}
	if nPrimes == 0 && width != 0 {
		// With no primes there is nothing to be wide: the encoder
		// always writes width 0 here, so anything else is not a frame
		// it produced (keeping decode∘encode canonical).
		return NodeShares{}, fmt.Errorf("%w: width %d with no primes", ErrBadFrame, width)
	}
	if nViews > 0 && span == 0 {
		// The encoder refuses views of an empty range, so that a frame
		// of no bytes cannot claim slices for a thousand views.
		return NodeShares{}, fmt.Errorf("%w: %d views of an empty range", ErrBadFrame, nViews)
	}
	// The whole body must be present, exactly: a short frame is
	// corruption, a long one a framing bug. Checking before allocating
	// bounds the decoder's memory by the bytes actually received.
	// (Bounds above keep this product far below overflow.)
	if need := uint64(max(nViews, 1)) * uint64(nPrimes) * uint64(width) * uint64(span) * 8; need != uint64(r.Left()) {
		return NodeShares{}, fmt.Errorf("%w: body claims %d bytes, frame carries %d", ErrBadFrame, need, r.Left())
	}
	m := NodeShares{ID: id, From: from, Round: round, Lo: int(lo), Hi: int(hi), Elapsed: elapsed}
	if len(errText) > 0 {
		m.Err = &RemoteError{Msg: string(errText)}
	}
	view := func() [][][]uint64 {
		v := make([][][]uint64, nPrimes)
		for pi := range v {
			v[pi] = make([][]uint64, width)
			for c := range v[pi] {
				v[pi][c] = r.Words(int(span))
			}
		}
		return v
	}
	if nViews == 0 {
		m.Vals = view()
		return m, nil
	}
	m.Views = make([][][][]uint64, nViews)
	for i := range m.Views {
		m.Views[i] = view()
	}
	return m, nil
}
