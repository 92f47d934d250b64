package core

// Shared plumbing for every wire format this module speaks: the proof
// encoding ('CML'), the NodeShares share frames ('CMS'), and the
// control protocol ('CMC' in internal/ctrl). Each format owns its magic
// constant; the magic check, the one bounded reader of untrusted
// payloads (Cursor) and the stream framing live here, once.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ConsumeMagic checks data's leading 4 magic/version bytes against want
// and returns the remainder. ok is false when the bytes are short or
// differ. The trailing magic byte is each format's only version: both
// ends of a deployment upgrade together, so a frame from another
// revision is rejected exactly like unrelated bytes, with no
// negotiation. Callers wrap the failure in their format's typed error
// (ErrBadFrame, ErrMalformedProof, ...).
func ConsumeMagic(data []byte, want [4]byte) (rest []byte, ok bool) {
	if len(data) < len(want) || [4]byte(data[:4]) != want {
		return nil, false
	}
	return data[4:], true
}

// Cursor reads one untrusted little-endian payload front to back. Every
// read checks its length, and any cap the caller names, against the
// bytes left before it slices or allocates, so a payload can never
// demand more memory than it carries. The first failure poisons the
// cursor: later reads return zero values, and Err and Done report it,
// wrapped in the format's typed error.
type Cursor struct {
	rest      []byte
	malformed error
	err       error
}

// NewCursor starts a cursor at the front of data; its failures wrap
// malformed (ErrBadFrame, ErrMalformedProof, ...).
func NewCursor(data []byte, malformed error) *Cursor {
	return &Cursor{rest: data, malformed: malformed}
}

// Raw reads exactly n bytes. The slice aliases the payload, capped so
// an append cannot write into the bytes after it.
func (c *Cursor) Raw(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.rest) {
		c.err = fmt.Errorf("%w: %d bytes claimed, %d left", c.malformed, n, len(c.rest))
		return nil
	}
	b := c.rest[:n:n]
	c.rest = c.rest[n:]
	return b
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if b := c.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

// Word reads one uint64.
func (c *Cursor) Word() uint64 {
	if b := c.Raw(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Int reads a word that must be at most limit (limit >= 0 and within
// int on every platform the caller supports).
func (c *Cursor) Int(limit int) int {
	v := c.Word()
	if v > uint64(limit) {
		c.err = fmt.Errorf("%w: value %d above its cap", c.malformed, v)
		return 0
	}
	return int(v)
}

// Bytes reads a word-length-prefixed byte string of at most limit
// bytes, aliasing the payload like Raw.
func (c *Cursor) Bytes(limit int) []byte {
	return c.Raw(c.Int(limit))
}

// Words reads n words into a fresh slice, checking n against the bytes
// left before it allocates.
func (c *Cursor) Words(n int) []uint64 {
	if c.err != nil {
		return nil
	}
	if n > len(c.rest)/8 {
		c.err = fmt.Errorf("%w: %d words claimed, %d bytes left", c.malformed, n, len(c.rest))
		return nil
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(c.rest[8*i:])
	}
	c.rest = c.rest[8*n:]
	return ws
}

// Left is the number of bytes not yet read.
func (c *Cursor) Left() int { return len(c.rest) }

// Err is the first failed read, or nil.
func (c *Cursor) Err() error { return c.err }

// Done reports whether the payload was read exactly: the first failed
// read, else any trailing bytes, else nil. Trailing bytes are an error
// because every format here is canonical, decode then encode giving
// back the input.
func (c *Cursor) Done() error {
	if c.err == nil && len(c.rest) > 0 {
		return fmt.Errorf("%w: %d trailing bytes", c.malformed, len(c.rest))
	}
	return c.err
}

// MaxFrameBytes caps the payload a reader accepts from a peer, for the
// share transport and the control protocol alike. A frame claiming
// more is rejected before any allocation and costs the peer its
// connection: the cap guards untrusted bytes, and 64 MiB is far above
// any share frame a run in this tree produces.
const MaxFrameBytes = 64 << 20

// maxFrameBytesHardCap bounds any frame regardless of configuration —
// a backstop against a misconfigured or hostile peer.
const maxFrameBytesHardCap = 1 << 30

// WriteFrame writes one length-prefixed payload to the stream: a
// uint32 little-endian byte count, then the payload. The prefix is what
// lets a reader recover message boundaries from a TCP byte stream; it
// carries no other meaning. Exported for the control protocol
// (internal/ctrl), which frames its messages the same way.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrameBytesHardCap {
		return fmt.Errorf("core: frame payload %d bytes exceeds hard cap", len(payload))
	}
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(payload)))
	if _, err := w.Write(prefix[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload, rejecting claims above
// maxBytes (<= 0 or oversized falls back to the hard cap) with
// ErrBadFrame before allocating. io.EOF before the first prefix byte is
// a clean end of stream; a partial frame surfaces as
// io.ErrUnexpectedEOF (the connection died, not a protocol violation).
func ReadFrame(r io.Reader, maxBytes int) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if maxBytes <= 0 || maxBytes > maxFrameBytesHardCap {
		maxBytes = maxFrameBytesHardCap
	}
	if n > uint32(maxBytes) {
		return nil, fmt.Errorf("%w: length prefix claims %d bytes, cap %d", ErrBadFrame, n, maxBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}
