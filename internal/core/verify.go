package core

// Randomized verification (paper §1.3 step 3, eq. (2)): any entity
// checks the decoded proof against the input with one fresh evaluation
// of P at a uniform random point per trial.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"camelot/internal/ff"
)

// VerifyProof runs the paper's randomized check (eq. (2)): for each of
// trials rounds and each modulus it draws a uniform x0 and compares one
// fresh evaluation of P(x0) with Horner evaluation of the claimed
// coefficients, for every coordinate. A correct proof always passes; a
// forged one survives a round with probability at most d/q. A proof over
// a prime below p.MinModulus(), the floor Evaluate and that bound assume,
// is an error.
//
// This is also the Merlin–Arthur mode: Arthur runs VerifyProof against a
// proof Merlin supplied, spending only a single node's evaluation effort
// per trial.
func VerifyProof(p Problem, proof *Proof, trials int, seed int64) (bool, error) {
	return verifyProof(context.Background(), p, proof, trials, seed)
}

// VerifyProofContext is VerifyProof with cancellation: the check aborts
// between (trial, prime) pairs when ctx is done, so multi-trial
// verification of a large proof is as cancellable as every other
// protocol stage. The job pipeline and any caller holding a deadline
// should prefer it.
func VerifyProofContext(ctx context.Context, p Problem, proof *Proof, trials int, seed int64) (bool, error) {
	return verifyProof(ctx, p, proof, trials, seed)
}

// verifyProof is the context-aware engine form of VerifyProof: the
// cancellation check runs once per (trial, prime) pair, so even a slow
// problem aborts after at most one stray evaluation.
func verifyProof(ctx context.Context, p Problem, proof *Proof, trials int, seed int64) (bool, error) {
	if trials <= 0 {
		trials = 1
	}
	// Honest proofs start at the floor (ChoosePrimes); below it Evaluate
	// need not be defined.
	for _, q := range proof.Primes {
		if q < p.MinModulus() {
			return false, fmt.Errorf("proof modulus %d is below the problem's minimum %d", q, p.MinModulus())
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < trials; t++ {
		for _, q := range proof.Primes {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			f, err := ff.New(q)
			if err != nil {
				return false, err
			}
			x0 := uniformUint64(rng, q)
			want, err := p.Evaluate(q, x0)
			if err != nil {
				return false, fmt.Errorf("evaluating P(%d) mod %d: %w", x0, q, err)
			}
			coeffs, ok := proof.Coeffs[q]
			if !ok {
				return false, fmt.Errorf("proof missing modulus %d", q)
			}
			for c := 0; c < proof.Width; c++ {
				if f.Horner(coeffs[c], x0) != want[c]%q {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// uniformUint64 draws a uniform value in [0, q) by rejection sampling:
// a plain rng.Uint64() % q overrepresents small residues by up to
// 2^64 mod q draws, a bias the soundness bound d/q does not account
// for. Values at or above the largest multiple of q below 2^64 are
// redrawn (at most one redraw expected for any q >= 2).
func uniformUint64(rng *rand.Rand, q uint64) uint64 {
	if q == 0 {
		panic("core: uniformUint64 with q = 0")
	}
	rem := (math.MaxUint64%q + 1) % q // 2^64 mod q
	if rem == 0 {
		return rng.Uint64() % q // q divides 2^64: no bias to reject
	}
	limit := math.MaxUint64 - rem // last acceptable value: ⌊2^64/q⌋·q - 1
	for {
		v := rng.Uint64()
		if v <= limit {
			return v % q
		}
	}
}

// VerifyProofBatch is the batched ingest check: it verifies that a
// proof is *internally consistent* — that for every modulus the stored
// codeword evaluations (Evals) are exactly the evaluations of the
// stored coefficient vectors (Coeffs) at the proof points 0..e-1 —
// while folding all Width·e per-point equations into ONE Horner
// evaluation per prime under a seeded random-linear-combination
// challenge. It never calls Problem.Evaluate, so a proof service can
// run it at ingest on proofs whose problem instance it cannot (or will
// not) evaluate; the paranoid per-point path — VerifyProof's fresh
// evaluations of P against the input — remains the audit-grade check
// that ties the proof to the problem.
//
// Per prime q, with W = Width, e = len(Points), d = Degree, the check
// draws r, z uniform in [0, q) from the seeded generator and accepts
// iff
//
//	Σ_i Λ_i(z) · (Σ_c r^c·Evals[c][i])  ==  (Σ_c r^c·Coeffs[c])(z)
//
// where Λ_i is the Lagrange basis over the grid 0..e-1: the left side
// is the degree-<e interpolation of the r-folded codeword evaluated at
// z, the right side the r-folded coefficient polynomial at z.
//
// Soundness: suppose some coordinate's Evals disagree with its Coeffs.
// The r-fold of the per-coordinate difference polynomials is a nonzero
// polynomial in r of degree ≤ W-1 evaluated coefficient-wise, so the
// folded difference vanishes for at most (W-1)/q of the r draws
// (Schwartz–Zippel in r). When it does not vanish, the two sides are
// distinct polynomials in z of degree ≤ max(d, e-1) and agree for at
// most max(d, e-1)/q of the z draws. One round therefore wrongly
// accepts with probability at most
//
//	(W-1 + max(d, e-1)) / q   per prime,
//
// and independent challenges across primes multiply the bound. For the
// framework's primes (≥ 2^61, crt.FloorModulus) and typical proof
// shapes (W-1+max(d, e-1) < 2^12) this is < 2^-49 per prime per call.
//
// A prime not above the grid (q ≤ e−1), where the Lagrange basis does not
// exist, is an error.
//
// Cost: O(W·(d+e) + e) multiplications per prime versus the W·e·d of
// auditing every point — the fold is what makes batched ingest cheap.
func VerifyProofBatch(proof *Proof, seed int64) (bool, error) {
	return verifyProofBatch(context.Background(), proof, seed)
}

// VerifyProofBatchContext is VerifyProofBatch with cancellation,
// checked once per prime.
func VerifyProofBatchContext(ctx context.Context, proof *Proof, seed int64) (bool, error) {
	return verifyProofBatch(ctx, proof, seed)
}

func verifyProofBatch(ctx context.Context, proof *Proof, seed int64) (bool, error) {
	e := len(proof.Points)
	for i, x := range proof.Points {
		if x != uint64(i) {
			return false, fmt.Errorf("batch verification requires the consecutive point grid 0..%d, got point %d at index %d", e-1, x, i)
		}
	}
	if proof.Width == 0 || e == 0 {
		return true, nil
	}
	rng := rand.New(rand.NewSource(seed))
	for _, q := range proof.Primes {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if uint64(e) >= q {
			return false, fmt.Errorf("batch verification requires the grid 0..%d to be smaller than the modulus %d", e-1, q)
		}
		f, err := ff.New(q)
		if err != nil {
			return false, err
		}
		k := f.Kernel()
		coeffs, ok := proof.Coeffs[q]
		evals, ok2 := proof.Evals[q]
		if !ok || !ok2 {
			return false, fmt.Errorf("proof missing modulus %d", q)
		}
		if len(coeffs) < proof.Width || len(evals) < proof.Width {
			return false, fmt.Errorf("proof mod %d has %d coefficient rows and %d evaluation rows, want %d",
				q, len(coeffs), len(evals), proof.Width)
		}
		r := uniformUint64(rng, q)
		z := uniformUint64(rng, q)
		foldedC := make([]uint64, proof.Degree+1)
		foldedE := make([]uint64, e)
		rc := uint64(1) // r^c
		for c := 0; c < proof.Width; c++ {
			if len(coeffs[c]) != proof.Degree+1 || len(evals[c]) != e {
				return false, fmt.Errorf("proof mod %d coordinate %d: %d coefficients and %d evaluations, want %d and %d",
					q, c, len(coeffs[c]), len(evals[c]), proof.Degree+1, e)
			}
			// MulShoup takes any 64-bit word, so unreduced entries of a
			// malformed proof fold in as their residues.
			rcS := ff.ShoupOf(rc, q)
			ff.MulAddVecShoup(foldedC, coeffs[c], rc, rcS, q)
			ff.MulAddVecShoup(foldedE, evals[c], rc, rcS, q)
			rc = ff.MulK(rc, r, k)
		}
		lam := f.LagrangeAtZeroBased(e, z)
		lhs := uint64(0)
		for i, li := range lam {
			lhs = f.Add(lhs, ff.MulK(li, foldedE[i], k))
		}
		if lhs != f.Horner(foldedC, z) {
			return false, nil
		}
	}
	return true, nil
}
