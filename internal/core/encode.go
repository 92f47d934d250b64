package core

// Binary serialization for proofs. A Camelot proof is a static artifact
// meant to outlive the computation — stored beside the input, mailed to
// a verifier, or replayed by Merlin — so it needs a stable wire format.
// The format is versioned, little-endian, and self-describing enough to
// round-trip without out-of-band metadata.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// proofMagic guards against decoding unrelated bytes; the trailing byte
// is the format version.
var proofMagic = [4]byte{'C', 'M', 'L', 1}

// ErrMalformedProof is the typed rejection of proof bytes that cannot
// be a Camelot proof: wrong magic, implausible or duplicated geometry,
// a size claim the data cannot back, a truncation or trailing bytes.
// Once proofs cross a socket the decoder is a trust boundary, so every
// claimed dimension is checked against the bytes actually present
// before anything is allocated.
var ErrMalformedProof = errors.New("core: malformed proof")

// MarshalBinary implements encoding.BinaryMarshaler.
//
// Layout: magic | degree | width | #points | points... | #primes |
// per prime: q | width × (d+1) coefficients | width × e evaluations.
func (p *Proof) MarshalBinary() ([]byte, error) {
	words := 3 + len(p.Points) + 1 + len(p.Primes)*(1+p.Width*(p.Degree+1+len(p.Points)))
	buf := make([]byte, 0, len(proofMagic)+8*max(words, 0))
	buf = append(buf, proofMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Degree))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Width))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.Points)))
	for _, x := range p.Points {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.Primes)))
	for _, q := range p.Primes {
		buf = binary.LittleEndian.AppendUint64(buf, q)
		coeffs, ok := p.Coeffs[q]
		if !ok || len(coeffs) != p.Width {
			return nil, fmt.Errorf("core: proof missing coefficients for prime %d", q)
		}
		evals, ok := p.Evals[q]
		if !ok || len(evals) != p.Width {
			return nil, fmt.Errorf("core: proof missing evaluations for prime %d", q)
		}
		for c := 0; c < p.Width; c++ {
			if len(coeffs[c]) != p.Degree+1 {
				return nil, fmt.Errorf("core: prime %d coord %d: %d coefficients, want %d",
					q, c, len(coeffs[c]), p.Degree+1)
			}
			for _, v := range coeffs[c] {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		}
		for c := 0; c < p.Width; c++ {
			if len(evals[c]) != len(p.Points) {
				return nil, fmt.Errorf("core: prime %d coord %d: %d evaluations, want %d",
					q, c, len(evals[c]), len(p.Points))
			}
			for _, v := range evals[c] {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		}
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Every failure
// wraps ErrMalformedProof.
func (p *Proof) UnmarshalBinary(data []byte) error {
	rest, ok := ConsumeMagic(data, proofMagic)
	if !ok {
		return fmt.Errorf("%w: bad magic/version", ErrMalformedProof)
	}
	const sane = 1 << 28
	r := NewCursor(rest, ErrMalformedProof)
	degree := r.Int(sane)
	width := r.Int(1 << 16)
	points := r.Words(r.Int(sane))
	nPrimes := r.Int(64)
	if err := r.Err(); err != nil {
		return err
	}
	// Per prime: the prime itself plus width coefficient vectors of
	// degree+1 words and width evaluation vectors of len(points) words.
	// Checking the whole body before allocating it keeps a tiny payload
	// from demanding gigabytes; the bounds above keep the product far
	// below uint64 overflow.
	wordsPerPrime := 1 + uint64(width)*uint64(degree+1+len(points))
	if need := uint64(nPrimes) * wordsPerPrime * 8; need > uint64(r.Left()) {
		return fmt.Errorf("%w: body claims %d bytes, %d available", ErrMalformedProof, need, r.Left())
	}
	p.Degree, p.Width, p.Points = degree, width, points
	p.Primes = make([]uint64, 0, nPrimes)
	p.Coeffs = make(map[uint64][][]uint64, nPrimes)
	p.Evals = make(map[uint64][][]uint64, nPrimes)
	for range nPrimes {
		q := r.Word()
		if _, dup := p.Coeffs[q]; dup {
			// A repeated modulus would overwrite Coeffs[q]/Evals[q]
			// while Primes kept both entries — an internally
			// inconsistent proof no honest marshaller produces.
			return fmt.Errorf("%w: duplicate prime %d", ErrMalformedProof, q)
		}
		coeffs := make([][]uint64, width)
		for c := range coeffs {
			coeffs[c] = r.Words(degree + 1)
		}
		evals := make([][]uint64, width)
		for c := range evals {
			evals[c] = r.Words(len(points))
		}
		p.Primes = append(p.Primes, q)
		p.Coeffs[q] = coeffs
		p.Evals[q] = evals
	}
	return r.Done()
}
