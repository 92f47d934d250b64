package interp

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestLagrangeIntRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		deg := 1 + rng.Intn(8)
		coeffs := make([]*big.Int, deg+1)
		for i := range coeffs {
			coeffs[i] = big.NewInt(rng.Int63n(2001) - 1000)
		}
		points := make([]int64, deg+1)
		values := make([]*big.Int, deg+1)
		for i := range points {
			points[i] = int64(i*3 - 5) // non-consecutive, includes negatives
			values[i] = EvalInt(coeffs, big.NewInt(points[i]))
		}
		got, err := LagrangeInt(points, values)
		if err != nil {
			t.Fatal(err)
		}
		for i := range coeffs {
			if got[i].Cmp(coeffs[i]) != 0 {
				t.Fatalf("trial %d: c_%d = %v, want %v", trial, i, got[i], coeffs[i])
			}
		}
	}
}

func TestLagrangeIntErrors(t *testing.T) {
	one := big.NewInt(1)
	if _, err := LagrangeInt(nil, nil); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := LagrangeInt([]int64{1}, []*big.Int{one, one}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := LagrangeInt([]int64{2, 2}, []*big.Int{one, one}); err == nil {
		t.Fatal("duplicate points must error")
	}
	// Half-integer slope: non-integral coefficients.
	if _, err := LagrangeInt([]int64{0, 2}, []*big.Int{big.NewInt(0), one}); err == nil {
		t.Fatal("non-integral interpolant must error")
	}
}

func TestEvalIntHorner(t *testing.T) {
	// 2 - 3x + x^3 at x = -2: 2 + 6 - 8 = 0.
	coeffs := []*big.Int{big.NewInt(2), big.NewInt(-3), big.NewInt(0), big.NewInt(1)}
	if got := EvalInt(coeffs, big.NewInt(-2)); got.Sign() != 0 {
		t.Fatalf("got %v, want 0", got)
	}
	if got := EvalInt(nil, big.NewInt(5)); got.Sign() != 0 {
		t.Fatalf("empty polynomial = %v, want 0", got)
	}
}
