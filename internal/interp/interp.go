// Package interp provides exact polynomial interpolation over the
// rationals with big integers: the final reconstruction step that turns
// CRT-recovered evaluation grids (chromatic-polynomial values at
// t = 1..n+1, Potts partition-function grids for the Tutte polynomial)
// into integer coefficient vectors.
package interp

import (
	"fmt"
	"math/big"
)

// LagrangeInt interpolates the unique polynomial of degree
// < len(points) through (points[i], values[i]) and returns its
// coefficients, which must come out integral (they do for the counting
// polynomials this package serves); otherwise an error is returned.
func LagrangeInt(points []int64, values []*big.Int) ([]*big.Int, error) {
	n := len(points)
	if n == 0 || n != len(values) {
		return nil, fmt.Errorf("interp: %d points, %d values", n, len(values))
	}
	seen := make(map[int64]bool, n)
	for _, x := range points {
		if seen[x] {
			return nil, fmt.Errorf("interp: duplicate point %d", x)
		}
		seen[x] = true
	}
	// Accumulate Σ_i y_i · Π_{j≠i} (x - x_j)/(x_i - x_j) in big.Rat
	// coefficients.
	acc := make([]*big.Rat, n)
	for i := range acc {
		acc[i] = new(big.Rat)
	}
	for i := 0; i < n; i++ {
		if values[i].Sign() == 0 {
			continue
		}
		// numer(x) = Π_{j≠i} (x - x_j), denom = Π_{j≠i} (x_i - x_j).
		numer := make([]*big.Int, 1, n)
		numer[0] = big.NewInt(1)
		denom := big.NewInt(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			xj := big.NewInt(points[j])
			// numer *= (x - x_j)
			next := make([]*big.Int, len(numer)+1)
			for k := range next {
				next[k] = new(big.Int)
			}
			for k, c := range numer {
				next[k+1].Add(next[k+1], c)
				next[k].Sub(next[k], new(big.Int).Mul(c, xj))
			}
			numer = next
			denom.Mul(denom, new(big.Int).Sub(big.NewInt(points[i]), xj))
		}
		scale := new(big.Rat).SetFrac(values[i], denom)
		for k, c := range numer {
			term := new(big.Rat).SetFrac(c, big.NewInt(1))
			acc[k].Add(acc[k], term.Mul(term, scale))
		}
	}
	out := make([]*big.Int, n)
	for k, c := range acc {
		if !c.IsInt() {
			return nil, fmt.Errorf("interp: coefficient of x^%d is non-integral (%v)", k, c)
		}
		out[k] = new(big.Int).Set(c.Num())
	}
	return out, nil
}

// EvalInt evaluates a big-integer coefficient polynomial at an integer
// point by Horner's rule.
func EvalInt(coeffs []*big.Int, x *big.Int) *big.Int {
	acc := new(big.Int)
	for k := len(coeffs) - 1; k >= 0; k-- {
		acc.Mul(acc, x)
		acc.Add(acc, coeffs[k])
	}
	return acc
}
