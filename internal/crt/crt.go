// Package crt reconstructs integers from residues modulo several pairwise
// coprime word-sized primes, via the Chinese Remainder Theorem. Camelot
// proofs are prepared modulo O(1) distinct primes q and the final counts
// (clique counts, permanents, chromatic-polynomial values, ...) are
// reassembled over the integers (paper footnotes 5 and 18).
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

// FloorModulus raises the modulus a problem's design needs to the 2^20
// floor every problem of the zoo shares: it keeps the CRT prime count low
// and the verifier's soundness error d/q small however little the
// problem's own degree demands.
func FloorModulus(need uint64) uint64 {
	return max(need, 1<<20)
}

// PrimesFor returns how many primes ≥ minQ make a product that exceeds
// every bound of boundBits bits: each prime contributes at least
// bitlen(minQ)-1 bits, and a proof has at least one prime.
func PrimesFor(boundBits int, minQ uint64) int {
	per := max(bits.Len64(minQ)-1, 1)
	return max((boundBits+per-1)/per, 1)
}
