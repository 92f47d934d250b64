// Package ctrl is the control protocol that turns the share transport
// into a multi-process deployment: a coordinator that owns a run's
// geometry and only gathers/decodes/verifies, and worker daemons that
// join it over TCP, receive point-range assignments, evaluate locally,
// and stream NodeShares frames back. The protocol is deliberately
// small — hello/helloAck grant a worker slot, assign carries a range
// manifest, shares reuses the 'CMS'3 codec verbatim (lost stands in for
// a frame the run's fault record lost), and done/error end things — layered over the same length-prefixed framing
// (core.WriteFrame/ReadFrame) the share transport speaks. The trailing
// magic byte is the protocol's only version (see core.ConsumeMagic):
// coordinator and workers upgrade together.
//
// Every control payload travels in one envelope:
//
//	magic 'C' 'M' 'C' 3
//	tag (1 byte) | seq (uint64 LE) | macLen (1 byte: 0 or 32)
//	macLen bytes of HMAC-SHA256 | body
//
// The MAC covers magic‖tag‖seq‖body under a per-connection session key
// derived from the shared secret and the coordinator's hello challenge
// (see auth.go); hello and helloAck travel before the key exists and
// are the only messages allowed unauthenticated on a keyed connection.
// Like the share codec, decoding is canonical — DecodeControl accepts
// exactly the bytes EncodeControl produces, every claimed length is
// checked against the bytes present before allocating (core.Cursor),
// and any violation is a typed ErrBadFrame, never a panic.
package ctrl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"camelot/internal/core"
)

// ctrlMagic guards control frames against unrelated bytes (including
// 'CMS' share frames arriving on the wrong port); the trailing byte is
// the format version.
var ctrlMagic = [4]byte{'C', 'M', 'C', 3}

// Control message tags, one per message kind in the envelope's tag
// byte. The zero value is deliberately invalid.
const (
	TagHello    byte = 1 // worker → coordinator: join request
	TagHelloAck byte = 2 // coordinator → worker: slot grant + challenge
	TagAssign   byte = 3 // coordinator → worker: one range manifest
	TagShares   byte = 4 // worker → coordinator: 'CMS'3 payload verbatim
	TagDone     byte = 5 // coordinator → worker: run over, disconnect
	TagError    byte = 6 // either direction: typed refusal, then close
	TagLost     byte = 7 // worker → coordinator: an assignment's frame is lost
)

// ErrBadFrame is the typed rejection of a malformed control frame. It
// deliberately mirrors core.ErrBadFrame: past either, the stream
// cannot be trusted to be in sync and the connection must drop.
var ErrBadFrame = errors.New("ctrl: malformed control frame")

// Codec sanity bounds: a frame claiming more is rejected before any
// allocation. Instances are textual workload specs, so 1 MiB is
// generous; everything else is protocol-metadata sized.
const (
	maxKindLen     = 256
	maxInstanceLen = 1 << 20
	maxPrimes      = 64
	maxErrMsgLen   = 1 << 16
	maxCtrlInt     = 1<<31 - 1 // ids, rounds, geometry words stay int-exact everywhere
)

// macSize is the only authenticated-MAC length the envelope admits
// (HMAC-SHA256).
const macSize = 32

// Frame is one decoded control envelope: the tag, the connection
// sequence number, the authentication tag (nil when unauthenticated,
// exactly 32 bytes otherwise), and the still-encoded message body.
type Frame struct {
	Tag  byte
	Seq  uint64
	MAC  []byte
	Body []byte
}

// Hello is the worker's join request: an optional resume token from a
// previous session on this coordinator (empty for a fresh join, exactly
// 16 bytes to reattach).
type Hello struct {
	Resume []byte
}

// HelloAck is the coordinator's grant: the worker slot in [0, K), the
// resume token that reattaches this slot after a reconnect, and the
// random challenge the session key is derived from.
type HelloAck struct {
	Worker    int
	Resume    [16]byte
	Challenge [16]byte
}

// Assign is one range manifest: the range the engine assigned
// (evaluate the proof polynomial for logical node Owner over points
// [Lo, Hi) for every prime, and send the result back tagged with Round,
// as logical node Sponsor of a run of K nodes under the run's fault
// record), plus the Kind and Instance that name the problem so a worker
// can rebuild it deterministically (the builder RunWorker is given) —
// Evaluate is deterministic in (q, x0), and the record's faults in
// (Seed, sponsor, share), so the frames that come back are
// bit-identical to what an in-process run would have sent.
type Assign struct {
	core.AssignSpec
	Kind     string
	Instance []byte
}

// Lost tells the coordinator that the fault record lost the frame
// Sponsor owed for assignment (Owner, Round), so a round whose every
// assignment has arrived or been lost is over, as in-process.
type Lost struct {
	Owner, Sponsor, Round int
}

// Done tells a worker the run is over and the connection is closing.
// Its body is empty: a coordinator serves one run.
type Done struct{}

// ErrorMsg is a typed refusal: a stable machine code and a
// human-readable message. Either side sends it just before closing.
type ErrorMsg struct {
	Code int
	Msg  string
}

// Error codes carried by ErrorMsg.
const (
	CodeClusterFul = 2 // every worker slot is taken and live
	CodeAuth       = 3 // authentication failure
	CodeBadFrame   = 4 // peer sent a malformed frame
	CodeWorker     = 5 // worker-side evaluation failure
)

func appendUint(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b)))
	return append(buf, b...)
}

// encodeBody serializes one typed message into its body bytes,
// validating the same bounds decodeBody enforces so an encoded frame
// is always decodable (the canonical-roundtrip property the fuzzer
// pins).
func encodeBody(msg any) (tag byte, body []byte, err error) {
	switch m := msg.(type) {
	case Hello:
		if len(m.Resume) != 0 && len(m.Resume) != 16 {
			return 0, nil, fmt.Errorf("ctrl: encode hello: resume token must be empty or 16 bytes, got %d", len(m.Resume))
		}
		return TagHello, appendBytes(nil, m.Resume), nil
	case HelloAck:
		if m.Worker < 0 || m.Worker > maxCtrlInt {
			return 0, nil, fmt.Errorf("ctrl: encode helloAck: bad worker %d", m.Worker)
		}
		body = appendUint(body, m.Worker)
		body = append(body, m.Resume[:]...)
		body = append(body, m.Challenge[:]...)
		return TagHelloAck, body, nil
	case Assign:
		if m.Owner < 0 || m.Round < 0 || m.Round > maxCtrlInt || m.Lo < 0 || m.Hi < m.Lo || m.Hi > maxCtrlInt ||
			m.Width <= 0 || m.Width > maxCtrlInt || m.K > maxCtrlInt || m.Owner >= m.K || m.Sponsor < 0 || m.Sponsor >= m.K {
			return 0, nil, fmt.Errorf("ctrl: encode assign: bad geometry owner=%d sponsor=%d k=%d round=%d range=[%d,%d) width=%d",
				m.Owner, m.Sponsor, m.K, m.Round, m.Lo, m.Hi, m.Width)
		}
		if err := m.Adversary.Validate(m.K); err != nil {
			return 0, nil, fmt.Errorf("ctrl: encode assign: %w", err)
		}
		if len(m.Primes) == 0 || len(m.Primes) > maxPrimes {
			return 0, nil, fmt.Errorf("ctrl: encode assign: %d primes (want 1..%d)", len(m.Primes), maxPrimes)
		}
		if len(m.Kind) == 0 || len(m.Kind) > maxKindLen {
			return 0, nil, fmt.Errorf("ctrl: encode assign: kind %d bytes (want 1..%d)", len(m.Kind), maxKindLen)
		}
		if len(m.Instance) > maxInstanceLen {
			return 0, nil, fmt.Errorf("ctrl: encode assign: instance %d bytes exceeds %d", len(m.Instance), maxInstanceLen)
		}
		for _, v := range []int{m.Owner, m.Sponsor, m.Round, m.Lo, m.Hi, m.Width, m.K, len(m.Primes)} {
			body = appendUint(body, v)
		}
		for _, q := range m.Primes {
			body = binary.LittleEndian.AppendUint64(body, q)
		}
		body = appendBytes(body, []byte(m.Kind))
		body = appendBytes(body, m.Instance)
		a := m.Adversary
		body = binary.LittleEndian.AppendUint64(body, a.Seed)
		for _, ids := range [][]int{a.Liars, a.Equivocators, a.DropNodes} {
			body = appendUint(body, len(ids))
			for _, id := range ids {
				body = appendUint(body, id)
			}
		}
		for _, rate := range []float64{a.DropRate, a.DupRate, a.DelayRate} {
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(rate))
		}
		body = binary.LittleEndian.AppendUint64(body, uint64(a.MaxDelay))
		return TagAssign, body, nil
	case core.NodeShares:
		payload, err := core.EncodeNodeShares(m)
		if err != nil {
			return 0, nil, err
		}
		return TagShares, payload, nil
	case Done:
		return TagDone, nil, nil
	case Lost:
		for _, v := range []int{m.Owner, m.Sponsor, m.Round} {
			if v < 0 || v > maxCtrlInt {
				return 0, nil, fmt.Errorf("ctrl: encode lost: bad id %d", v)
			}
			body = appendUint(body, v)
		}
		return TagLost, body, nil
	case ErrorMsg:
		if m.Code < 0 || m.Code > maxCtrlInt {
			return 0, nil, fmt.Errorf("ctrl: encode error: bad code %d", m.Code)
		}
		if len(m.Msg) > maxErrMsgLen {
			return 0, nil, fmt.Errorf("ctrl: encode error: message %d bytes exceeds %d", len(m.Msg), maxErrMsgLen)
		}
		body = appendUint(body, m.Code)
		body = appendBytes(body, []byte(m.Msg))
		return TagError, body, nil
	default:
		return 0, nil, fmt.Errorf("ctrl: encode: unsupported message type %T", msg)
	}
}

// EncodeMessage builds one complete control payload (without the
// stream length prefix; core.WriteFrame adds it): the envelope for
// msg's tag at sequence seq, authenticated under key when key is
// non-nil. msg must be one of Hello, HelloAck, Assign,
// core.NodeShares, Lost, Done, or ErrorMsg.
func EncodeMessage(seq uint64, key []byte, msg any) ([]byte, error) {
	tag, body, err := encodeBody(msg)
	if err != nil {
		return nil, err
	}
	return EncodeControl(Frame{Tag: tag, Seq: seq, MAC: computeMAC(key, tag, seq, body), Body: body}), nil
}

// EncodeControl assembles a frame's envelope bytes. The frame is
// trusted (built by EncodeMessage or a test); DecodeControl is where
// validation lives.
func EncodeControl(f Frame) []byte {
	buf := make([]byte, 0, len(ctrlMagic)+1+8+1+len(f.MAC)+len(f.Body))
	buf = append(buf, ctrlMagic[:]...)
	buf = append(buf, f.Tag)
	buf = binary.LittleEndian.AppendUint64(buf, f.Seq)
	buf = append(buf, byte(len(f.MAC)))
	buf = append(buf, f.MAC...)
	buf = append(buf, f.Body...)
	return buf
}

// DecodeControl parses one control payload into its envelope and typed
// message. Every failure wraps ErrBadFrame (a TagShares body failure
// wraps core.ErrBadFrame, which callers treat identically), no claimed
// length allocates past the bytes present, and a successful decode
// re-encodes byte-identically (pinned by FuzzDecodeControl). MAC
// verification is the caller's job — the envelope only constrains the
// length to 0 or 32.
func DecodeControl(payload []byte) (Frame, any, error) {
	var f Frame
	rest, ok := core.ConsumeMagic(payload, ctrlMagic)
	if !ok {
		return f, nil, fmt.Errorf("%w: bad magic/version", ErrBadFrame)
	}
	r := core.NewCursor(rest, ErrBadFrame)
	f.Tag = r.Byte()
	f.Seq = r.Word()
	macLen := int(r.Byte()) // 0 after a short read, caught below
	if macLen != 0 && macLen != macSize {
		return f, nil, fmt.Errorf("%w: mac length %d (want 0 or %d)", ErrBadFrame, macLen, macSize)
	}
	if macLen > 0 {
		f.MAC = r.Raw(macLen)
	}
	if err := r.Err(); err != nil {
		return f, nil, err
	}
	f.Body = r.Raw(r.Left())
	msg, err := decodeBody(f.Tag, f.Body)
	if err != nil {
		return f, nil, err
	}
	return f, msg, nil
}

// decodeBody parses one message body; the canonical checks (no
// trailing bytes, the encoder's bounds) make decode∘encode the
// identity.
func decodeBody(tag byte, body []byte) (any, error) {
	if tag == TagShares {
		m, err := core.DecodeNodeShares(body)
		if err != nil {
			return nil, err // wraps core.ErrBadFrame
		}
		return m, nil
	}
	r := core.NewCursor(body, ErrBadFrame)
	var msg any
	plausible := true
	switch tag {
	case TagHello:
		var m Hello
		if resume := r.Bytes(16); len(resume) > 0 {
			m.Resume = append([]byte(nil), resume...)
			plausible = len(resume) == 16
		}
		msg = m
	case TagHelloAck:
		m := HelloAck{Worker: r.Int(maxCtrlInt)}
		copy(m.Resume[:], r.Raw(16))
		copy(m.Challenge[:], r.Raw(16))
		msg = m
	case TagAssign:
		var m Assign
		for _, v := range []*int{&m.Owner, &m.Sponsor, &m.Round, &m.Lo, &m.Hi, &m.Width, &m.K} {
			*v = r.Int(maxCtrlInt)
		}
		m.Primes = r.Words(r.Int(maxPrimes))
		m.Kind = string(r.Bytes(maxKindLen))
		if instance := r.Bytes(maxInstanceLen); len(instance) > 0 {
			m.Instance = append([]byte(nil), instance...)
		}
		a := &m.Adversary
		a.Seed = r.Word()
		for _, ids := range []*[]int{&a.Liars, &a.Equivocators, &a.DropNodes} {
			// Words checks the claimed count against the bytes left.
			for _, id := range r.Words(r.Int(maxCtrlInt)) {
				*ids = append(*ids, int(min(id, maxCtrlInt))) // Validate refuses ids >= K
			}
		}
		for _, rate := range []*float64{&a.DropRate, &a.DupRate, &a.DelayRate} {
			*rate = math.Float64frombits(r.Word())
		}
		a.MaxDelay = time.Duration(int64(r.Word())) // Validate refuses a negative one
		plausible = len(m.Primes) > 0 && m.Hi >= m.Lo && m.Width > 0 && m.Kind != "" &&
			m.Owner < m.K && m.Sponsor < m.K && a.Validate(m.K) == nil
		msg = m
	case TagDone:
		msg = Done{}
	case TagLost:
		msg = Lost{Owner: r.Int(maxCtrlInt), Sponsor: r.Int(maxCtrlInt), Round: r.Int(maxCtrlInt)}
	case TagError:
		var m ErrorMsg
		m.Code = r.Int(maxCtrlInt)
		m.Msg = string(r.Bytes(maxErrMsgLen))
		msg = m
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrBadFrame, tag)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if !plausible {
		return nil, fmt.Errorf("%w: implausible %T", ErrBadFrame, msg)
	}
	return msg, nil
}
