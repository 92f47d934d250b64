package ctrl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"camelot/internal/core"
)

// sampleMessages is one representative value per control message kind,
// used by the round-trip test and as the fuzz seed corpus.
func sampleMessages() []any {
	return []any{
		Hello{},
		Hello{Resume: bytes.Repeat([]byte{0xAB}, 16)},
		HelloAck{Worker: 2,
			Resume:    [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
			Challenge: [16]byte{0xFF, 0xEE, 1}},
		Assign{Owner: 3, Sponsor: 1, Round: 2, Lo: 10, Hi: 20, Width: 2, K: 6,
			Primes: []uint64{97, 193}, Kind: "triangles", Instance: []byte("n=24 p=0.3 seed=7"),
			Adversary: core.Adversary{Seed: 1 << 63, Liars: []int{1, 4}, Equivocators: []int{5}, DropNodes: []int{3, 0},
				DropRate: 0.25, DupRate: 1, DelayRate: 0.5, MaxDelay: 3 * time.Millisecond}},
		Assign{Owner: 0, Round: 0, Lo: 0, Hi: 1, Width: 1, K: 1, Primes: []uint64{17}, Kind: "k"},
		core.NodeShares{ID: 1, From: 2, Round: 1, Lo: 4, Hi: 6, Elapsed: 5 * time.Millisecond,
			Vals: [][][]uint64{{{7, 8}, {9, 10}}}},
		core.NodeShares{ID: 0, From: 0, Round: 0, Lo: 0, Hi: 3,
			Err: &core.RemoteError{Msg: "evaluation exploded"}},
		core.NodeShares{ID: 2, From: 2, Lo: 3, Hi: 4,
			Views: [][][][]uint64{{{{1}}, {{2}}}, {{{3}}, {{4}}}, {{{5}}, {{6}}}}},
		Lost{Owner: 4, Sponsor: 2, Round: 1},
		Done{},
		ErrorMsg{Code: CodeClusterFul, Msg: "all 4 worker slots are live"},
	}
}

// TestControlRoundTrip pins decode∘encode identity for every message
// kind, authenticated and not, and that the envelope metadata (tag,
// seq, MAC length) survives.
func TestControlRoundTrip(t *testing.T) {
	keys := [][]byte{nil, deriveKey([]byte("secret"), [16]byte{42})}
	for _, key := range keys {
		for i, msg := range sampleMessages() {
			seq := uint64(i) * 1000003
			payload, err := EncodeMessage(seq, key, msg)
			if err != nil {
				t.Fatalf("key=%v msg %d (%T): encode: %v", key != nil, i, msg, err)
			}
			f, got, err := DecodeControl(payload)
			if err != nil {
				t.Fatalf("key=%v msg %d (%T): decode: %v", key != nil, i, msg, err)
			}
			if f.Seq != seq {
				t.Errorf("msg %d: seq %d, want %d", i, f.Seq, seq)
			}
			if (key != nil) != (len(f.MAC) == macSize) {
				t.Errorf("msg %d: mac length %d under keyed=%v", i, len(f.MAC), key != nil)
			}
			if err := VerifyMAC(key, f); err != nil {
				t.Errorf("msg %d: verify: %v", i, err)
			}
			assertMessageEqual(t, i, msg, got)
			// Canonical: re-encoding the decoded value reproduces the bytes.
			re, err := EncodeMessage(seq, key, got)
			if err != nil {
				t.Fatalf("msg %d: re-encode: %v", i, err)
			}
			if !bytes.Equal(payload, re) {
				t.Errorf("msg %d (%T): re-encoded bytes differ", i, msg)
			}
		}
	}
}

func assertMessageEqual(t *testing.T, i int, want, got any) {
	t.Helper()
	switch w := want.(type) {
	case core.NodeShares:
		g, ok := got.(core.NodeShares)
		if !ok {
			t.Fatalf("msg %d: decoded %T, want NodeShares", i, got)
		}
		// The in-band error comes back as *core.RemoteError; compare text.
		if (w.Err == nil) != (g.Err == nil) || (w.Err != nil && w.Err.Error() != g.Err.Error()) {
			t.Errorf("msg %d: err %v vs %v", i, g.Err, w.Err)
		}
		w.Err, g.Err = nil, nil
		wb, _ := core.EncodeNodeShares(w)
		gb, _ := core.EncodeNodeShares(g)
		if !bytes.Equal(wb, gb) {
			t.Errorf("msg %d: NodeShares mismatch", i)
		}
	default:
		// The remaining kinds are plain comparable-ish structs with
		// slices; canonical re-encode equality (checked by the caller)
		// plus a type check suffices.
		if wt, gt := fmt.Sprintf("%T", want), fmt.Sprintf("%T", got); wt != gt {
			t.Errorf("msg %d: decoded %s, want %s", i, gt, wt)
		}
	}
}

// FuzzDecodeControl mirrors FuzzDecodeNodeShares for the control
// envelope: any input either decodes canonically (re-encoding the
// decoded frame and message reproduces the input byte for byte) or is
// rejected with the typed frame errors — never a panic, never an
// allocation-driven blowup.
func FuzzDecodeControl(f *testing.F) {
	for i, msg := range sampleMessages() {
		for _, key := range [][]byte{nil, deriveKey([]byte("s"), [16]byte{byte(i)})} {
			if payload, err := EncodeMessage(uint64(i), key, msg); err == nil {
				f.Add(payload)
			}
		}
	}
	f.Add([]byte{'C', 'M', 'C', 3})
	f.Add([]byte{'C', 'M', 'S', 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, msg, err := DecodeControl(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, core.ErrBadFrame) {
				t.Fatalf("rejection not typed: %v", err)
			}
			return
		}
		body, err := reencodeBody(msg)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		re := EncodeControl(Frame{Tag: fr.Tag, Seq: fr.Seq, MAC: fr.MAC, Body: body})
		if !bytes.Equal(re, data) {
			t.Fatalf("decode not canonical:\n in %x\nout %x", data, re)
		}
	})
}

func reencodeBody(msg any) ([]byte, error) {
	_, body, err := encodeBody(msg)
	return body, err
}

// TestHMACTamper flips every byte of a valid authenticated shares
// frame and asserts each mutation is caught as a typed failure —
// ErrAuth from verification or a typed decode rejection — and never a
// panic. This is the delivery-fault guarantee the coordinator's read
// loop builds on.
func TestHMACTamper(t *testing.T) {
	key := deriveKey([]byte("cluster secret"), [16]byte{9, 9, 9})
	shares := core.NodeShares{ID: 1, From: 1, Round: 0, Lo: 0, Hi: 2,
		Vals: [][][]uint64{{{11, 22}}}}
	payload, err := EncodeMessage(7, key, shares)
	if err != nil {
		t.Fatal(err)
	}
	if f, _, err := DecodeControl(payload); err != nil || VerifyMAC(key, f) != nil {
		t.Fatalf("pristine frame must pass: decode=%v", err)
	}
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d: decode panicked: %v", i, r)
				}
			}()
			f, _, err := DecodeControl(mut)
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, core.ErrBadFrame) {
					t.Errorf("byte %d: rejection not typed: %v", i, err)
				}
				return
			}
			if err := VerifyMAC(key, f); err == nil {
				t.Errorf("byte %d: tampered frame passed authentication", i)
			} else if !errors.Is(err, ErrAuth) {
				t.Errorf("byte %d: auth rejection not typed: %v", i, err)
			}
		}()
	}
}

// TestVerifyMACModes pins the two authentication modes: nil key admits
// anything (loopback mode), a key demands a present, correct MAC.
func TestVerifyMACModes(t *testing.T) {
	body := []byte("body")
	f := Frame{Tag: TagDone, Seq: 3, Body: body}
	if err := VerifyMAC(nil, f); err != nil {
		t.Fatalf("nil key must admit unauthenticated frames: %v", err)
	}
	key := deriveKey([]byte("k"), [16]byte{1})
	if err := VerifyMAC(key, f); !errors.Is(err, ErrAuth) {
		t.Fatalf("missing MAC under a key must be ErrAuth, got %v", err)
	}
	f.MAC = computeMAC(key, f.Tag, f.Seq, body)
	if err := VerifyMAC(key, f); err != nil {
		t.Fatalf("correct MAC rejected: %v", err)
	}
	// A frame MAC'd for seq 3 replayed as seq 4 must fail: seq is bound
	// into the MAC.
	f.Seq = 4
	if err := VerifyMAC(key, f); !errors.Is(err, ErrAuth) {
		t.Fatalf("replayed seq must be ErrAuth, got %v", err)
	}
}
