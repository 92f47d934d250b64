package core

// Shared frame-header plumbing for every versioned wire format this
// module speaks: the proof encoding ('CML'), the NodeShares share
// frames ('CMS'), and the control protocol ('CMC' in internal/ctrl).
// Each format owns its magic constant; the validation — and therefore
// the shape of a version bump (change the trailing byte, reject
// everything else) — lives in exactly one place, here.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ConsumeMagic checks data's leading 4 magic/version bytes against want
// and returns the remainder. ok is false when the bytes are short or
// differ — including a version byte from a different format revision;
// both ends of a deployment upgrade together, so an old-version frame
// is rejected exactly like unrelated bytes. Callers wrap the failure in
// their format's typed error (ErrBadFrame, ErrMalformedProof, ...).
func ConsumeMagic(data []byte, want [4]byte) (rest []byte, ok bool) {
	if len(data) < len(want) || [4]byte(data[:4]) != want {
		return nil, false
	}
	return data[4:], true
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
