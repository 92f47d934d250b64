package core_test

import (
	"context"
	"errors"
	"testing"

	"camelot"
	"camelot/internal/core"
)

// TestVerifyProofRefusesModulusBelowFloor holds VerifyProof to the
// problem's geometry, not the proof's claims about it: a prime below
// MinModulus is an error, and a proof whose width, degree, prime count
// or coefficient vectors differ from the problem's is refused with
// ErrMalformedProof before any value is compared. The hamilton and
// permanent rows are forgeries an honest-looking comparison accepts:
// width 0 with a raised coefficient (the answer moves from 507 to 515
// cycles), and the all-3s 16×16 permanent cut to its first prime (the
// count comes out negative).
func TestVerifyProofRefusesModulusBelowFloor(t *testing.T) {
	type row struct {
		name   string
		spec   string
		nodes  int
		tamper func(p core.Problem, proof *core.Proof)
		typed  bool // the error must wrap ErrMalformedProof
	}
	below := func(q uint64) func(core.Problem, *core.Proof) {
		return func(p core.Problem, proof *core.Proof) {
			proof.Primes = []uint64{q}
			proof.Coeffs = map[uint64][][]uint64{q: make([][]uint64, p.Width())}
		}
	}
	first := func(proof *core.Proof) uint64 { return proof.Primes[0] }
	rows := []row{
		{name: "q=2", spec: "hamilton n=10", tamper: below(2)},
		{name: "q=3", spec: "hamilton n=10", tamper: below(3)},
		{name: "q=13", spec: "hamilton n=10", tamper: below(13)},
		{name: "width 0, coefficient raised", spec: "hamilton n=10", nodes: 3, typed: true,
			tamper: func(_ core.Problem, proof *core.Proof) {
				proof.Width = 0
				c := proof.Coeffs[first(proof)][0]
				c[0]++
			}},
		{name: "cut to one prime", spec: "permanent-all-3s", typed: true,
			tamper: func(_ core.Problem, proof *core.Proof) {
				q := first(proof)
				proof.Primes = proof.Primes[:1]
				proof.Coeffs = map[uint64][][]uint64{q: proof.Coeffs[q]}
			}},
		{name: "prime without a coordinate vector", spec: "hamilton n=10", typed: true,
			tamper: func(_ core.Problem, proof *core.Proof) { delete(proof.Coeffs, first(proof)) }},
		{name: "coefficient vector past the degree", spec: "hamilton n=10", typed: true,
			tamper: func(_ core.Problem, proof *core.Proof) {
				q := first(proof)
				proof.Coeffs[q][0] = append(proof.Coeffs[q][0], 0)
			}},
		{name: "degree claimed below the problem's", spec: "hamilton n=10", typed: true,
			tamper: func(_ core.Problem, proof *core.Proof) { proof.Degree-- }},
		// chromatic's coordinate 0 is the zero polynomial: cut to nothing it
		// evaluates the same, and the answer's coefficient read panics.
		{name: "zero coordinate cut short", spec: "chromatic", typed: true,
			tamper: func(_ core.Problem, proof *core.Proof) {
				for _, q := range proof.Primes {
					proof.Coeffs[q][0] = nil
				}
			}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			p := problemFor(t, r.spec)
			proof, _, err := core.Run(context.Background(), p, core.Options{Nodes: max(r.nodes, 1)})
			if err != nil {
				t.Fatal(err)
			}
			r.tamper(p, proof)
			ok, err := core.VerifyProof(p, proof, 5, 1)
			if err == nil || (r.typed && !errors.Is(err, core.ErrMalformedProof)) {
				t.Fatalf("VerifyProof = (%v, %v), want an error%s", ok, err, map[bool]string{true: " wrapping ErrMalformedProof"}[r.typed])
			}
		})
	}
}

// problemFor builds a row's problem: a catalog spec, or the all-3s 16×16
// matrix, whose permanent 3^16·16! needs two primes.
func problemFor(t *testing.T, spec string) core.Problem {
	t.Helper()
	if spec == "permanent-all-3s" {
		a := make([][]int64, 16)
		for i := range a {
			a[i] = make([]int64, 16)
			for j := range a[i] {
				a[i][j] = 3
			}
		}
		p, err := camelot.NewPermanentProblem(a)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumPrimes() < 2 {
			t.Fatalf("the all-3s permanent needs %d primes, want at least 2", p.NumPrimes())
		}
		return p
	}
	w, err := camelot.ParseWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w.Problem
}
