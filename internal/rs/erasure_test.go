package rs

import (
	"math/rand"
	"testing"

	"camelot/internal/poly"
)

// corruptWord returns a copy of cw with nerr random symbol errors and
// s erased positions (erasure values scrambled too — the decoder must
// ignore them). Errors and erasures never overlap.
func corruptWord(rng *rand.Rand, c *Code, cw []uint64, nerr, s int) (rx []uint64, errLocs map[int]bool, erased []int) {
	e := len(cw)
	rx = make([]uint64, e)
	copy(rx, cw)
	perm := rng.Perm(e)
	erased = append(erased, perm[:s]...)
	for _, i := range erased {
		rx[i] = rng.Uint64() % c.Field().Q // garbage the decoder must never read
	}
	errLocs = make(map[int]bool, nerr)
	for _, i := range perm[s : s+nerr] {
		delta := 1 + rng.Uint64()%(c.Field().Q-1)
		rx[i] = c.Field().Add(rx[i], delta)
		errLocs[i] = true
	}
	return rx, errLocs, erased
}

func TestDecodeErasuresValidation(t *testing.T) {
	c := newTestCode(t, 16, 5)
	rx := make([]uint64, 16)
	if _, _, _, err := c.DecodeErasures(rx, []int{16}); err == nil {
		t.Fatal("out-of-range erasure index accepted")
	}
	if _, _, _, err := c.DecodeErasures(rx, []int{-1}); err == nil {
		t.Fatal("negative erasure index accepted")
	}
	// Duplicates collapse: {3,3} is one erasure, and the all-zero word
	// still decodes to the zero message.
	msg, corrected, locs, err := c.DecodeErasures(rx, []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if poly.Degree(msg) != -1 || len(locs) != 0 {
		t.Fatalf("zero word with erasures: msg=%v locs=%v", msg, locs)
	}
	for _, v := range corrected {
		if v != 0 {
			t.Fatal("corrected word not zero")
		}
	}
	if _, _, _, err := c.DecodeErasures(make([]uint64, 15), nil); err == nil {
		t.Fatal("wrong-length word accepted")
	}
}

func TestCorrectionRadiusWithErasures(t *testing.T) {
	c := newTestCode(t, 16, 5) // plain radius 5
	for _, tc := range []struct{ s, want int }{
		{0, 5}, {1, 4}, {2, 4}, {4, 3}, {10, 0}, {11, -1}, {16, -3},
	} {
		if got := c.CorrectionRadiusWithErasures(tc.s); got != tc.want {
			t.Errorf("radius with %d erasures = %d, want %d", tc.s, got, tc.want)
		}
	}
	if c.CorrectionRadiusWithErasures(0) != c.CorrectionRadius() {
		t.Error("zero erasures must reduce to the plain radius")
	}
}
