// Package crt reconstructs integers from residues modulo several pairwise
// coprime word-sized primes, via the Chinese Remainder Theorem. Camelot
// proofs are prepared modulo O(1) distinct primes q and the final counts
// (clique counts, permanents, chromatic-polynomial values, ...) are
// reassembled over the integers (paper footnotes 5 and 18).
//
// The package also holds the width policy, which is one rule with no
// knob: every prime is a full machine word, q in [2^61, 2^62)
// (FloorModulus), and a proof takes as many of them as its answer bound
// needs at 61 bits apiece (PrimesFor). internal/ff's reduction kernels
// cost the same per word for any q < 2^62, and everything the engine
// does — compile, evaluate, send, decode, verify, marshal — it does once
// per prime, so the widest word is the cheapest proof: the paper's O(1)
// is 1 for every catalog kind at its defaults.
package crt

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// ErrMismatch is returned when residue and modulus slices disagree in
// length or are empty.
var ErrMismatch = errors.New("crt: residue/modulus mismatch")

// Reconstruct returns the unique x in [0, Π moduli) with
// x ≡ residues[i] (mod moduli[i]) for all i. Moduli must be pairwise
// coprime (they are distinct primes everywhere in this codebase).
func Reconstruct(residues, moduli []uint64) (*big.Int, error) {
	if len(residues) != len(moduli) || len(residues) == 0 {
		return nil, fmt.Errorf("%w: %d residues, %d moduli", ErrMismatch, len(residues), len(moduli))
	}
	x := new(big.Int).SetUint64(residues[0] % moduli[0])
	m := new(big.Int).SetUint64(moduli[0])
	for i := 1; i < len(moduli); i++ {
		qi := new(big.Int).SetUint64(moduli[i])
		ri := new(big.Int).SetUint64(residues[i] % moduli[i])
		// Solve x + m*t ≡ ri (mod qi)  =>  t ≡ (ri - x) * m^{-1} (mod qi).
		minv := new(big.Int).ModInverse(new(big.Int).Mod(m, qi), qi)
		if minv == nil {
			return nil, fmt.Errorf("crt: moduli %d and earlier product not coprime", moduli[i])
		}
		t := new(big.Int).Sub(ri, x)
		t.Mod(t, qi)
		t.Mul(t, minv)
		t.Mod(t, qi)
		x.Add(x, t.Mul(t, m))
		m.Mul(m, qi)
	}
	return x, nil
}

// ReconstructSigned is Reconstruct followed by mapping into the symmetric
// range (-M/2, M/2], for quantities that may be negative (e.g. permanents
// of matrices with negative entries).
func ReconstructSigned(residues, moduli []uint64) (*big.Int, error) {
	x, err := Reconstruct(residues, moduli)
	if err != nil {
		return nil, err
	}
	m := big.NewInt(1)
	for _, q := range moduli {
		m.Mul(m, new(big.Int).SetUint64(q))
	}
	half := new(big.Int).Rsh(m, 1)
	if x.Cmp(half) > 0 {
		x.Sub(x, m)
	}
	return x, nil
}

// FloorModulus raises the modulus a problem's design needs to the 2^61
// floor every problem of the zoo shares — the one literal floor in the
// module. core.ChoosePrimes takes the smallest NTT-friendly primes from
// it up, so q lands in [2^61, 2^62), inside ff.MaxPrime: each prime
// buys 61 bits of CRT range, and the verifier's soundness error d/q per
// trial is below 2^-40 for any proof of degree under 2^21, however
// little the problem's own degree demands. Tests that want a visible
// d/q pass explicit small primes to the layers below and never ask a
// problem for its floor.
func FloorModulus(need uint64) uint64 {
	return max(need, 1<<61)
}

// PrimesFor returns how many primes ≥ minQ make a product that exceeds
// every bound of boundBits bits: each prime contributes at least
// bitlen(minQ)-1 bits, and a proof has at least one prime.
func PrimesFor(boundBits int, minQ uint64) int {
	per := max(bits.Len64(minQ)-1, 1)
	return max((boundBits+per-1)/per, 1)
}
