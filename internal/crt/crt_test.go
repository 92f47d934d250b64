package crt

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestReconstructSmall(t *testing.T) {
	// x ≡ 2 (mod 3), x ≡ 3 (mod 5), x ≡ 2 (mod 7)  =>  x = 23.
	x, err := Reconstruct([]uint64{2, 3, 2}, []uint64{3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x.Cmp(big.NewInt(23)) != 0 {
		t.Fatalf("got %v, want 23", x)
	}
}

func TestReconstructSingle(t *testing.T) {
	x, err := Reconstruct([]uint64{42}, []uint64{97})
	if err != nil {
		t.Fatal(err)
	}
	if x.Cmp(big.NewInt(42)) != 0 {
		t.Fatalf("got %v", x)
	}
}

func TestReconstructErrors(t *testing.T) {
	if _, err := Reconstruct(nil, nil); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := Reconstruct([]uint64{1}, []uint64{3, 5}); err == nil {
		t.Fatal("want error for length mismatch")
	}
	if _, err := Reconstruct([]uint64{1, 2}, []uint64{6, 4}); err == nil {
		t.Fatal("want error for non-coprime moduli")
	}
}

func TestReconstructRoundTripProperty(t *testing.T) {
	moduli := []uint64{1000003, 2000003, 4000037, 8000009}
	m := big.NewInt(1)
	for _, q := range moduli {
		m.Mul(m, new(big.Int).SetUint64(q))
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		want := new(big.Int).Rand(rng, m)
		res := make([]uint64, len(moduli))
		for i, q := range moduli {
			res[i] = new(big.Int).Mod(want, new(big.Int).SetUint64(q)).Uint64()
		}
		got, err := Reconstruct(res, moduli)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestReconstructSigned(t *testing.T) {
	moduli := []uint64{10007, 10009}
	for _, want := range []int64{-5000, -1, 0, 1, 123456} {
		res := make([]uint64, len(moduli))
		for i, q := range moduli {
			v := want % int64(q)
			if v < 0 {
				v += int64(q)
			}
			res[i] = uint64(v)
		}
		got, err := ReconstructSigned(res, moduli)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("want %d, got %v", want, got)
		}
	}
}

// TestPrimesFor holds the word-sized arithmetic to its definition — bits
// of the bound over (bit length of minQ, less one), rounded up, at least
// one — and pins the floor.
func TestPrimesFor(t *testing.T) {
	for _, minQ := range []uint64{0, 1, 2, 3, 97, 1 << 20, 1<<20 + 7, 1 << 40, 1<<61 - 1} {
		per := new(big.Int).SetUint64(minQ).BitLen() - 1
		if per < 1 {
			per = 1
		}
		for _, bits := range []int{0, 1, 19, 20, 21, 40, 41, 64, 1000} {
			want := (bits + per - 1) / per
			if want < 1 {
				want = 1
			}
			if got := PrimesFor(bits, minQ); got != want {
				t.Errorf("PrimesFor(%d, %d) = %d, want %d", bits, minQ, got, want)
			}
		}
	}
	if FloorModulus(5) != 1<<61 || FloorModulus(1<<61+1) != 1<<61+1 {
		t.Errorf("FloorModulus(5), FloorModulus(2^61+1) = %d, %d", FloorModulus(5), FloorModulus(1<<61+1))
	}
}
