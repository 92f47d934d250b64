package core

// Tests for the RLC batch verifier (ISSUE 6 tentpole c): agreement with
// the per-point audit path on valid and corrupted proofs, detection of
// evaluation-table tampering (which VerifyProof, reading only Coeffs,
// cannot see), determinism under a fixed seed, and the validation
// errors.

import (
	"context"
	"testing"
)

func batchTestProof(t *testing.T) (*polyProblem, *Proof) {
	t.Helper()
	p := &polyProblem{
		name:   "batch-fixture",
		coeffs: [][]int64{{5, 0, 3, 2}, {1, 4}, {7, 0, 0, 0, 11}},
		primes: 2,
		// Large primes keep the per-round soundness error
		// (W-1+max(d,e-1))/q around 2^-28, so the fixed-seed corruption
		// sweeps below cannot land on an accepting challenge.
		minQ: 1 << 31,
	}
	proof, rep, err := Run(context.Background(), p, Options{Nodes: 4, FaultTolerance: 1, Seed: 77})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Verified {
		t.Fatal("fixture run did not verify")
	}
	return p, proof
}

func TestVerifyProofBatchAgreesOnValidProof(t *testing.T) {
	p, proof := batchTestProof(t)
	for seed := int64(0); seed < 20; seed++ {
		ok, err := VerifyProof(p, proof, 1, seed)
		if err != nil || !ok {
			t.Fatalf("VerifyProof(seed=%d) = %v, %v on a valid proof", seed, ok, err)
		}
		ok, err = VerifyProofBatch(proof, seed)
		if err != nil || !ok {
			t.Fatalf("VerifyProofBatch(seed=%d) = %v, %v on a valid proof", seed, ok, err)
		}
	}
}

func TestVerifyProofBatchAgreesOnCorruptedCoefficients(t *testing.T) {
	p, proof := batchTestProof(t)
	q := proof.Primes[0]
	// Tampering with a coefficient desynchronizes Coeffs from both the
	// input polynomial and the stored Evals: the audit path and the batch
	// check must both reject.
	proof.Coeffs[q][0][2] = (proof.Coeffs[q][0][2] + 1) % q
	for seed := int64(0); seed < 20; seed++ {
		ok, err := VerifyProof(p, proof, 1, seed)
		if err != nil {
			t.Fatalf("VerifyProof: %v", err)
		}
		if ok {
			t.Fatalf("VerifyProof(seed=%d) accepted a coefficient-corrupted proof", seed)
		}
		ok, err = VerifyProofBatch(proof, seed)
		if err != nil {
			t.Fatalf("VerifyProofBatch: %v", err)
		}
		if ok {
			t.Fatalf("VerifyProofBatch(seed=%d) accepted a coefficient-corrupted proof", seed)
		}
	}
}

func TestVerifyProofBatchCatchesEvalTampering(t *testing.T) {
	p, proof := batchTestProof(t)
	q := proof.Primes[len(proof.Primes)-1]
	proof.Evals[q][1][3] = (proof.Evals[q][1][3] + 1) % q
	// VerifyProof reads only Coeffs, so it still accepts — this is
	// exactly the gap the structural batch check closes at ingest.
	ok, err := VerifyProof(p, proof, 1, 9)
	if err != nil || !ok {
		t.Fatalf("VerifyProof = %v, %v (reads Coeffs only; should accept)", ok, err)
	}
	for seed := int64(0); seed < 20; seed++ {
		ok, err := VerifyProofBatch(proof, seed)
		if err != nil {
			t.Fatalf("VerifyProofBatch: %v", err)
		}
		if ok {
			t.Fatalf("VerifyProofBatch(seed=%d) accepted an eval-tampered proof", seed)
		}
	}
}

func TestVerifyProofBatchDeterministicPerSeed(t *testing.T) {
	_, proof := batchTestProof(t)
	for seed := int64(0); seed < 5; seed++ {
		a, err1 := VerifyProofBatch(proof, seed)
		b, err2 := VerifyProofBatch(proof, seed)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("seed %d: VerifyProofBatch not deterministic (%v/%v, %v/%v)", seed, a, err1, b, err2)
		}
	}
}

func TestVerifyProofBatchValidation(t *testing.T) {
	_, proof := batchTestProof(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VerifyProofBatchContext(ctx, proof, 1); err == nil {
		t.Fatal("expected context cancellation error")
	}

	q := proof.Primes[0]
	short := *proof
	short.Coeffs = map[uint64][][]uint64{q: proof.Coeffs[q][:1]}
	short.Primes = []uint64{q}
	if _, err := VerifyProofBatch(&short, 1); err == nil {
		t.Fatal("expected row-count validation error")
	}

	missing := *proof
	missing.Primes = append(append([]uint64{}, proof.Primes...), 1048583)
	if _, err := VerifyProofBatch(&missing, 1); err == nil {
		t.Fatal("expected missing-modulus error")
	}

	scattered := *proof
	scattered.Points = append([]uint64{}, proof.Points...)
	scattered.Points[0] = 500
	if _, err := VerifyProofBatch(&scattered, 1); err == nil {
		t.Fatal("expected non-consecutive-points error")
	}

	var tiny Proof
	if err := tiny.UnmarshalBinary(gridAtModulus()); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyProofBatch(&tiny, 1); err == nil {
		t.Fatal("expected grid-not-below-modulus error")
	}
}
