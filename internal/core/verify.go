package core

// Randomized verification (paper §1.3 step 3, eq. (2)): any entity
// checks the decoded proof against the input with one fresh evaluation
// of P at a uniform random point per trial.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"camelot/internal/ff"
)

// VerifyProof runs the paper's randomized check (eq. (2)): for each of
// trials rounds and each modulus it draws a uniform x0 from
// challengeRand(seed) and compares one fresh evaluation of P(x0) with
// Horner evaluation of the claimed coefficients, for every coordinate.
// A correct proof always passes; a forged one survives a round with
// probability at most d/q. A proof over a prime below p.MinModulus(),
// the floor Evaluate and that bound assume, is an error; so is one whose
// geometry is not the problem's (see checkGeometry), wrapping
// ErrMalformedProof.
//
// This is also the Merlin–Arthur mode: Arthur runs VerifyProof against a
// proof Merlin supplied, spending only a single node's evaluation effort
// per trial.
func VerifyProof(p Problem, proof *Proof, trials int, seed int64) (bool, error) {
	return VerifyProofContext(context.Background(), p, proof, trials, seed)
}

// VerifyProofContext is VerifyProof with cancellation: the check aborts
// between (trial, prime) pairs when ctx is done, so multi-trial
// verification of a large proof is as cancellable as every other
// protocol stage. It runs the verifier's two halves in turn, the
// evaluations at the challenge points (expectProof) and the check of the
// proof against them (checkProof); the engine runs the same two, the
// first while the Knights prepare the proof.
func VerifyProofContext(ctx context.Context, p Problem, proof *Proof, trials int, seed int64) (bool, error) {
	exp, err := expectProof(ctx, p, proof.Primes, trials, seed)
	if err != nil {
		return false, err
	}
	return checkProof(p, proof, exp)
}

// challenge is one (trial, prime) pair of the check: the point x0 drawn
// for the modulus q, and P(x0) mod q, every coordinate.
type challenge struct {
	q, x0 uint64
	want  []uint64
}

// expectations are the verifier's half of the check that reads no
// proof: the challenge points and P's values there, in draw order.
type expectations struct {
	primes []uint64
	points []challenge
}

// expectProof draws every (trial, prime) point from
// challengeRand(seed), trials outermost, and evaluates P there, one
// fresh evaluation each. The cancellation check runs once per pair, so
// even a slow problem aborts after at most one stray evaluation.
func expectProof(ctx context.Context, p Problem, primes []uint64, trials int, seed int64) (*expectations, error) {
	if trials <= 0 {
		trials = 1
	}
	// Honest proofs start at the floor (ChoosePrimes); below it Evaluate
	// need not be defined.
	for _, q := range primes {
		if q < p.MinModulus() {
			return nil, fmt.Errorf("proof modulus %d is below the problem's minimum %d", q, p.MinModulus())
		}
	}
	exp := &expectations{primes: primes, points: make([]challenge, 0, trials*len(primes))}
	rng := challengeRand(seed)
	for t := 0; t < trials; t++ {
		for _, q := range primes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if _, err := ff.New(q); err != nil { // no P over a non-prime
				return nil, err
			}
			x0 := rng.Uint64N(q)
			want, err := p.Evaluate(q, x0)
			if err != nil {
				return nil, fmt.Errorf("evaluating P(%d) mod %d: %w", x0, q, err)
			}
			exp.points = append(exp.points, challenge{q: q, x0: x0, want: want})
		}
	}
	return exp, nil
}

// checkProof is the verifier's half of the check that reads the proof:
// the proof must have the problem's geometry over the primes exp was
// drawn for (so none is below the floor), and every coordinate's
// coefficients must evaluate, by Horner's rule, to P's value at every
// challenge point.
func checkProof(p Problem, proof *Proof, exp *expectations) (bool, error) {
	if err := checkGeometry(p, proof); err != nil {
		return false, err
	}
	if !slices.Equal(proof.Primes, exp.primes) {
		return false, fmt.Errorf("proof over primes %v, challenge points drawn for %v", proof.Primes, exp.primes)
	}
	for _, ch := range exp.points {
		f, err := ff.New(ch.q)
		if err != nil {
			return false, err
		}
		for c, coeffs := range proof.Coeffs[ch.q] {
			if f.Horner(coeffs, ch.x0) != ch.want[c]%ch.q {
				return false, nil
			}
		}
	}
	return true, nil
}

// checkGeometry refuses a proof whose shape is not the problem's, so
// that the comparison covers what the answer reads: the problem's Width
// coordinates at (at least) its NumPrimes primes, each a vector of
// exactly Degree()+1 coefficients — the length the d/q bound assumes
// and the coefficient index an answer reads (CoeffResidues). The
// proof's own Width, Degree and prime list are claims, not the
// geometry: a vector cut short of zero top coefficients evaluates the
// same and would pass the comparison.
func checkGeometry(p Problem, proof *Proof) error {
	width, d := p.Width(), p.Degree()
	if proof.Width != width || proof.Degree != d {
		return fmt.Errorf("%w: width %d and degree %d, the problem's are %d and %d",
			ErrMalformedProof, proof.Width, proof.Degree, width, d)
	}
	if need := p.NumPrimes(); len(proof.Primes) < need {
		return fmt.Errorf("%w: %d primes, the problem needs %d", ErrMalformedProof, len(proof.Primes), need)
	}
	for _, q := range proof.Primes {
		coeffs := proof.Coeffs[q]
		if len(coeffs) != width {
			return fmt.Errorf("%w: %d coordinate vectors mod %d, want %d", ErrMalformedProof, len(coeffs), q, width)
		}
		for c, v := range coeffs {
			if len(v) != d+1 {
				return fmt.Errorf("%w: coordinate %d mod %d has %d coefficients, degree %d needs %d",
					ErrMalformedProof, c, q, len(v), d, d+1)
			}
		}
	}
	return nil
}

// challengeRand is the generator every verifier draw comes from, in
// VerifyProof and VerifyProofBatch alike: a PCG whose two state words
// are the seed, set in O(1). Its Uint64N is uniform on [0, q); a plain
// Uint64() % q would overrepresent small residues by up to 2^64 mod q
// draws, a bias the soundness bounds do not account for.
func challengeRand(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(seed)))
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
// draws r, z uniform in [0, q) from challengeRand(seed) and accepts
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
	return VerifyProofBatchContext(context.Background(), proof, seed)
}

// VerifyProofBatchContext is VerifyProofBatch with cancellation,
// checked once per prime.
func VerifyProofBatchContext(ctx context.Context, proof *Proof, seed int64) (bool, error) {
	e := len(proof.Points)
	for i, x := range proof.Points {
		if x != uint64(i) {
			return false, fmt.Errorf("batch verification requires the consecutive point grid 0..%d, got point %d at index %d", e-1, x, i)
		}
	}
	if proof.Width == 0 || e == 0 {
		return true, nil
	}
	rng := challengeRand(seed)
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
		r := rng.Uint64N(q)
		z := rng.Uint64N(q)
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
