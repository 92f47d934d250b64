package core

// Codec tests for the NodeShares wire format: exact round-trips across
// the geometry space, rejection of truncated/oversized/garbage frames
// with the typed ErrBadFrame, and a fuzz target asserting the decoder
// never panics and that every accepted payload re-encodes to the very
// bytes that produced it (the format is canonical).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"
)

// randomShares builds a rectangular NodeShares with seeded contents,
// including a random sponsor and repair round so the round-trip cases
// exercise the v2 header fields.
func randomShares(rng *rand.Rand, id, lo, span, nPrimes, width int, errText string) NodeShares {
	m := NodeShares{
		ID: id, From: rng.Intn(1 << 20), Round: rng.Intn(4),
		Lo: lo, Hi: lo + span,
		Elapsed: time.Duration(rng.Int63n(1 << 40)),
		Vals:    make([][][]uint64, nPrimes),
	}
	if errText != "" {
		m.Err = &RemoteError{Msg: errText}
	}
	for pi := range m.Vals {
		coords := make([][]uint64, width)
		for c := range coords {
			vals := make([]uint64, span)
			for j := range vals {
				vals[j] = rng.Uint64()
			}
			coords[c] = vals
		}
		m.Vals[pi] = coords
	}
	return m
}

// withViews turns m into an equivocating sender's message: views
// random views of m's shape in place of its Vals.
func withViews(rng *rand.Rand, m NodeShares, views int) NodeShares {
	for range views {
		m.Views = append(m.Views, randomShares(rng, m.ID, m.Lo, m.Hi-m.Lo, len(m.Vals), len(m.Vals[0]), "").Vals)
	}
	m.Vals = nil
	return m
}

func sharesEqual(t *testing.T, a, b NodeShares) {
	t.Helper()
	if a.ID != b.ID || a.From != b.From || a.Round != b.Round ||
		a.Lo != b.Lo || a.Hi != b.Hi || a.Elapsed != b.Elapsed {
		t.Fatalf("header mismatch: %+v vs %+v", a, b)
	}
	switch {
	case a.Err == nil && b.Err == nil:
	case a.Err == nil || b.Err == nil || a.Err.Error() != b.Err.Error():
		t.Fatalf("err mismatch: %v vs %v", a.Err, b.Err)
	}
	if len(a.Vals) != len(b.Vals) {
		t.Fatalf("prime count %d vs %d", len(a.Vals), len(b.Vals))
	}
	for pi := range a.Vals {
		if len(a.Vals[pi]) != len(b.Vals[pi]) {
			t.Fatalf("prime %d width %d vs %d", pi, len(a.Vals[pi]), len(b.Vals[pi]))
		}
		for c := range a.Vals[pi] {
			av, bv := a.Vals[pi][c], b.Vals[pi][c]
			if len(av) != len(bv) {
				t.Fatalf("prime %d coord %d span %d vs %d", pi, c, len(av), len(bv))
			}
			for j := range av {
				if av[j] != bv[j] {
					t.Fatalf("prime %d coord %d point %d: %d vs %d", pi, c, j, av[j], bv[j])
				}
			}
		}
	}
	if len(a.Views) != len(b.Views) {
		t.Fatalf("%d views vs %d", len(a.Views), len(b.Views))
	}
	for r := range a.Views {
		sharesEqual(t, NodeShares{Vals: a.Views[r]}, NodeShares{Vals: b.Views[r]})
	}
}

func TestNodeSharesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		id, lo, span, nPrimes, width int
		errText                      string
	}{
		{0, 0, 1, 1, 1, ""},
		{7, 13, 29, 3, 4, ""},
		{3, 0, 0, 2, 5, ""}, // empty owned range
		{1, 5, 8, 0, 0, ""}, // no primes at all
		{2, 9, 4, 1, 2, "node 2: evaluation exploded"},
		{1 << 20, 1 << 20, 100, 4, 3, ""},
	}
	for i, tc := range cases {
		m := randomShares(rng, tc.id, tc.lo, tc.span, tc.nPrimes, tc.width, tc.errText)
		if tc.span > 0 && tc.nPrimes > 0 && i%2 == 1 {
			m = withViews(rng, m, 3)
		}
		data, err := EncodeNodeShares(m)
		if err != nil {
			t.Fatalf("encode %+v: %v", tc, err)
		}
		back, err := DecodeNodeShares(data)
		if err != nil {
			t.Fatalf("decode %+v: %v", tc, err)
		}
		sharesEqual(t, m, back)
		// Canonical: re-encoding the decoded message reproduces the bytes.
		again, err := EncodeNodeShares(back)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("re-encoded bytes differ for %+v", tc)
		}
	}
}

func TestNodeSharesEncodeRejectsRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomShares(rng, 1, 0, 4, 2, 3, "")
	m.Vals[1] = m.Vals[1][:2] // second prime narrower than the first
	if _, err := EncodeNodeShares(m); err == nil {
		t.Fatal("encode accepted ragged width")
	}
	m = randomShares(rng, 1, 0, 4, 2, 3, "")
	m.Vals[0][1] = m.Vals[0][1][:3] // one coord short of the span
	if _, err := EncodeNodeShares(m); err == nil {
		t.Fatal("encode accepted short coordinate vector")
	}
	m = randomShares(rng, 1, 0, 4, 1, 1, "")
	m.Hi = m.Lo - 1
	if _, err := EncodeNodeShares(m); err == nil {
		t.Fatal("encode accepted negative span")
	}
}

func TestNodeSharesDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomShares(rng, 5, 10, 6, 2, 3, "some failure")
	data, err := EncodeNodeShares(m)
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must be rejected, and always with the typed
	// error — the decoder's contract with the connection reader.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeNodeShares(data[:n]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadFrame", n, len(data), err)
		}
	}
	// Trailing garbage is a framing bug, not slack.
	if _, err := DecodeNodeShares(append(append([]byte{}, data...), 0xFF)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestNodeSharesDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   []byte("XXXXthis is not a frame at all, not even close"),
		"proof magic": append([]byte{'C', 'M', 'L', 1}, make([]byte, 64)...),
		// The pre-repair frame format: one version byte off, typed-rejected
		// rather than misparsed (v1 headers lack the from/round words).
		"v1 magic": append([]byte{'C', 'M', 'S', 1}, make([]byte, 72)...),
	}
	for name, data := range cases {
		if _, err := DecodeNodeShares(data); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestNodeSharesDecodeBoundsAllocations feeds headers claiming huge
// geometry with almost no bytes behind them: the decoder must reject
// before allocating anything proportional to the claim.
func TestNodeSharesDecodeBoundsAllocations(t *testing.T) {
	le := binary.LittleEndian
	hdr := func(id, from, round, lo, hi, elapsed, errLen uint64, rest ...uint64) []byte {
		buf := append([]byte{}, sharesMagic[:]...)
		for _, v := range []uint64{id, from, round, lo, hi, elapsed, errLen} {
			buf = le.AppendUint64(buf, v)
		}
		for _, v := range rest {
			buf = le.AppendUint64(buf, v)
		}
		return buf
	}
	cases := map[string][]byte{
		"huge span":     hdr(1, 0, 0, 0, 1<<40, 0, 0),
		"negative span": hdr(1, 0, 0, 100, 50, 0, 0),
		"huge from":     hdr(1, 1<<40, 0, 0, 1, 0, 0),
		"huge round":    hdr(1, 0, 1<<40, 0, 1, 0, 0),
		"huge err":      hdr(1, 0, 0, 0, 1, 0, 1<<30),
		"huge primes":   hdr(1, 0, 0, 0, 1, 0, 0, 1<<20, 1),
		"huge width":    hdr(1, 0, 0, 0, 1, 0, 0, 1, 1<<40),
		"unbacked body": hdr(1, 0, 0, 0, 1<<20, 0, 0, 8, 64), // claims 4 GiB of words, carries none
	}
	for name, data := range cases {
		allocated := testing.AllocsPerRun(1, func() {
			if _, err := DecodeNodeShares(data); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: err = %v, want ErrBadFrame", name, err)
			}
		})
		// The error path allocates the error value and nothing
		// claim-sized; a handful of allocations is the ceiling.
		if allocated > 8 {
			t.Fatalf("%s: %v allocations on the reject path", name, allocated)
		}
	}
}

func TestReadFrameRejectsOversizedClaim(t *testing.T) {
	var buf bytes.Buffer
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], 1<<28)
	buf.Write(prefix[:])
	buf.WriteString("tiny")
	if _, err := ReadFrame(&buf, 1<<20); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized claim: err = %v, want ErrBadFrame", err)
	}
}

func TestFrameRoundTripAndPartials(t *testing.T) {
	payload := []byte("the collector expects exactly this")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	stream := append([]byte{}, buf.Bytes()...)
	got, err := ReadFrame(bytes.NewReader(stream), 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	// A stream cut mid-frame is a died connection, not a protocol
	// violation: io.ErrUnexpectedEOF, never ErrBadFrame.
	for n := 1; n < len(stream); n++ {
		_, err := ReadFrame(bytes.NewReader(stream[:n]), 0)
		if errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut at %d misread as protocol violation", n)
		}
		if err == nil {
			t.Fatalf("cut at %d accepted", n)
		}
	}
	// And a clean end before any prefix byte is io.EOF.
	if _, err := ReadFrame(bytes.NewReader(nil), 0); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// FuzzDecodeNodeShares asserts the decoder's two contracts under
// arbitrary bytes: it never panics, and anything it accepts re-encodes
// to exactly the input (canonical format, so a forwarded frame cannot
// mutate in flight).
func FuzzDecodeNodeShares(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []NodeShares{
		randomShares(rng, 0, 0, 1, 1, 1, ""),
		randomShares(rng, 6, 12, 5, 2, 3, "boom"),
		randomShares(rng, 2, 0, 0, 1, 4, ""),
		withViews(rng, randomShares(rng, 1, 3, 2, 2, 2, ""), 4),
	} {
		data, err := EncodeNodeShares(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{'C', 'M', 'S', 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeNodeShares(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("rejection not typed: %v", err)
			}
			return
		}
		again, err := EncodeNodeShares(m)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("decode/encode not canonical:\n in %x\nout %x", data, again)
		}
	})
}
