package core

// Adversarial tests for the proof decoder: once proofs cross a socket,
// UnmarshalBinary is a trust boundary. These pin the two hardening
// fixes — duplicate primes are rejected instead of silently
// overwriting map entries, and claimed geometry is checked against the
// bytes actually present before anything is allocated. (Round-trip
// coverage of honest proofs lives in core_test.go.)

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// tinyProof builds a consistent in-memory proof for mutation.
func tinyProof(primes ...uint64) *Proof {
	p := &Proof{
		Primes: primes,
		Degree: 2,
		Width:  1,
		Points: []uint64{0, 1, 2, 3},
		Coeffs: map[uint64][][]uint64{},
		Evals:  map[uint64][][]uint64{},
	}
	for _, q := range primes {
		p.Coeffs[q] = [][]uint64{{1, 2, 3}}
		p.Evals[q] = [][]uint64{{4, 5, 6, 7}}
	}
	return p
}

func TestUnmarshalRejectsDuplicatePrimes(t *testing.T) {
	// A Primes slice listing the same modulus twice marshals cleanly
	// (both entries resolve to the one map entry) — exactly the
	// payload shape a forger would mail: Primes says two, the maps
	// hold one.
	dup := tinyProof(97, 97)
	data, err := dup.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	err = back.UnmarshalBinary(data)
	if !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("duplicate primes: err = %v, want ErrMalformedProof", err)
	}
	// The honest two-prime proof still round-trips.
	honest := tinyProof(97, 101)
	data, err = honest.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
}

// proofHeader hand-assembles a proof payload header making arbitrary
// geometry claims.
func proofHeader(degree, width, nPoints uint64, rest ...uint64) []byte {
	buf := append([]byte{}, proofMagic[:]...)
	for _, v := range []uint64{degree, width, nPoints} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, v := range rest {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// gridAtModulus is a 132-byte proof that decodes cleanly but whose grid
// 0..4 is not smaller than its one modulus, 3 (degree 0, width 1): the
// batch check's Lagrange basis does not exist there.
func gridAtModulus() []byte {
	return proofHeader(0, 1, 5, 0, 1, 2, 3, 4, 1, 3, 0, 0, 0, 0, 0, 0)
}

// unbackedHeaders are proof headers whose claims would demand
// gigabytes from a payload of a few dozen bytes.
func unbackedHeaders() map[string][]byte {
	return map[string][]byte{
		// 2^28 points claimed, zero bytes behind them.
		"unbacked points": proofHeader(4, 2, 1<<28),
		// Small point set but one prime claiming width×(degree+1) ≈
		// 2^44 words — the shape that used to allocate before reading.
		"unbacked body": proofHeader(1<<28, 1<<16, 2, 0, 0, 1, 12345),
		// 64 primes of a plausible-but-unbacked size.
		"many primes": proofHeader(1<<20, 8, 2, 0, 0, 64, 12345),
	}
}

// TestUnmarshalBoundsAllocationsAgainstPayload mails headers whose
// claims would demand gigabytes: the decoder must reject them on the
// byte budget before allocating anything claim-sized.
func TestUnmarshalBoundsAllocationsAgainstPayload(t *testing.T) {
	for name, data := range unbackedHeaders() {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var p Proof
		err := p.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("%s: err = %v, want ErrMalformedProof", name, err)
		}
		// The claims above are all ≥ 2 GiB; the reject path must stay
		// orders of magnitude below.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("%s: decoder allocated %d bytes rejecting a tiny payload", name, grew)
		}
	}
}

// honestProofBytes marshals the proof of a real two-node run.
func honestProofBytes(tb testing.TB) []byte {
	tb.Helper()
	proof, _, err := Run(context.Background(), testProblem(), Options{Nodes: 2, FaultTolerance: 1})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := proof.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestUnmarshalRejectionsAreTyped: every rejection of proof bytes is
// ErrMalformedProof, including each proper prefix of an honest proof
// (cuts in the header and point list too) and the proof plus one
// trailing byte.
func TestUnmarshalRejectionsAreTyped(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   []byte("XXXX rest doesn't matter"),
		"huge degree": proofHeader(1<<60, 1, 1),
	}
	honest := honestProofBytes(t)
	for n := range len(honest) {
		cases[fmt.Sprintf("prefix %d of %d", n, len(honest))] = honest[:n]
	}
	cases["one trailing byte"] = append(append([]byte(nil), honest...), 0)
	// The first prime's word follows the header and the point list.
	var proof Proof
	if err := proof.UnmarshalBinary(honest); err != nil {
		t.Fatal(err)
	}
	at := len(proofMagic) + 8*(4+len(proof.Points))
	for name, q := range map[string]uint64{"even modulus": proof.Primes[0] + 1, "odd composite modulus": 3 * 5 * 7 * 11} {
		bad := append([]byte(nil), honest...)
		binary.LittleEndian.PutUint64(bad[at:], q)
		cases[name] = bad
	}
	for name, data := range cases {
		var p Proof
		if err := p.UnmarshalBinary(data); !errors.Is(err, ErrMalformedProof) {
			t.Errorf("%s: err = %v, want ErrMalformedProof", name, err)
		}
	}
}

// FuzzUnmarshalProof holds the proof decoder to the property the share
// and control codecs' fuzzers pin: any input either decodes and
// re-marshals to exactly the input, or is rejected with
// ErrMalformedProof — never a panic, never a claim-sized allocation.
// Every accepted proof also goes through VerifyProofBatch, the check a
// proof service runs on bytes it holds, and SumRanges, which recovery
// runs on every coordinate; neither may panic.
func FuzzUnmarshalProof(f *testing.F) {
	f.Add(honestProofBytes(f))
	f.Add(gridAtModulus())
	for _, data := range unbackedHeaders() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		if err := p.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrMalformedProof) {
				t.Fatalf("rejection not typed: %v", err)
			}
			return
		}
		again, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted proof failed to re-marshal: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("unmarshal/marshal not canonical:\n in %x\nout %x", data, again)
		}
		VerifyProofBatch(&p, 1)
		for c := range p.Width {
			p.SumRanges(c, 0, uint64(len(p.Points)+2))
		}
	})
}
