package rs

// Parallel-vs-serial equivalence for the Gao decoder (satellite of
// ISSUE 6): the decode pipeline (interpolation up the code's subproduct
// tree) picks up parallelism from internal/par through poly, and
// exact modular arithmetic means the parallel execution must reproduce
// the serial result bit for bit — message, corrected word, and error
// locations alike. CI's -race leg runs this with real interleavings.
// Two geometries: a small NTT prime, where Quotient falls back to Mul and
// DivMod, and the engine's decode_bound geometry over a 61-bit prime,
// where it divides on the odd roots beside the locator.

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"camelot/internal/par"
	"camelot/internal/poly"
)

func TestDecodeParallelMatchesSerial(t *testing.T) {
	t.Run("small-prime", func(t *testing.T) {
		e, d := 2048, 1500
		c := newTestCode(t, e, d)
		rng := rand.New(rand.NewSource(31))
		f := c.Field()
		msg := randMessage(rng, f, d)
		restore := par.SetParallelism(1)
		encoded, err := c.Encode(msg)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		received := make([]uint64, e)
		copy(received, encoded)
		// Stay within the erasure-adjusted budget 2·errors + erasures ≤ e-d-1
		// so both decode legs succeed rather than failing in tandem.
		for i := 0; i < 200; i++ {
			pos := rng.Intn(e)
			received[pos] = (received[pos] + 1 + rng.Uint64()%(f.Q-1)) % f.Q
		}
		checkParallelDecode(t, c, msg, received, []int{3, 99, 1044})
	})
	t.Run("decode-bound", func(t *testing.T) {
		// 2·145 errors + 3 erasures ≤ e-d-1 = 400.
		c, msg, _, garbled := decodeBoundWords(t)
		checkParallelDecode(t, c, msg, garbled, []int{3, 99, 1044})
	})
	t.Run("e=1535", func(t *testing.T) {
		// 2·192 errors + 3 erasures ≤ e-d-1 = 400.
		c, msg, _, garbled := blockErrorWords(t, 1535, 1134, 192, 384)
		checkParallelDecode(t, c, msg, garbled, []int{3, 99, 1044})
	})
}

// checkParallelDecode requires Encode, Decode and DecodeErasures of one
// word to agree bit for bit at parallelism 1 and 4, and one code and one
// erasure plan to serve four decoding goroutines at once.
func checkParallelDecode(t *testing.T, c *Code, msg, received []uint64, erased []int) {
	type result struct {
		msg, corrected []uint64
		locs           []int
		err            error
	}
	run := func(workers int) (clean, erasedRes result, encodedW []uint64) {
		restore := par.SetParallelism(workers)
		defer restore()
		encodedW, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		m1, c1, l1, e1 := c.Decode(received)
		m2, c2, l2, e2 := c.DecodeErasures(received, erased)
		return result{m1, c1, l1, e1}, result{m2, c2, l2, e2}, encodedW
	}

	serialClean, serialErased, serialEnc := run(1)
	parClean, parErased, parEnc := run(4)
	if serialClean.err != nil || serialErased.err != nil {
		t.Fatalf("serial decode failed: %v / %v", serialClean.err, serialErased.err)
	}

	for i := range serialEnc {
		if parEnc[i] != serialEnc[i] {
			t.Fatalf("parallel Encode[%d] = %d, serial %d", i, parEnc[i], serialEnc[i])
		}
	}
	// check runs on the test goroutine and on the decoder goroutines
	// below, so it reports with Errorf.
	check := func(name string, got, want result) {
		t.Helper()
		if (got.err == nil) != (want.err == nil) {
			t.Errorf("%s: parallel err %v, serial err %v", name, got.err, want.err)
			return
		}
		if want.err != nil {
			return
		}
		if len(got.locs) != len(want.locs) {
			t.Errorf("%s: parallel found %d error locations, serial %d", name, len(got.locs), len(want.locs))
			return
		}
		for i := range want.locs {
			if got.locs[i] != want.locs[i] {
				t.Errorf("%s: parallel errorLocs[%d] = %d, serial %d", name, i, got.locs[i], want.locs[i])
				return
			}
		}
		for i := range want.corrected {
			if got.corrected[i] != want.corrected[i] {
				t.Errorf("%s: parallel corrected[%d] = %d, serial %d", name, i, got.corrected[i], want.corrected[i])
				return
			}
		}
		for i := range want.msg {
			if got.msg[i] != want.msg[i] || got.msg[i] != msg[i] {
				t.Errorf("%s: parallel message[%d] = %d, serial %d, original %d", name, i, got.msg[i], want.msg[i], msg[i])
				return
			}
		}
	}
	check("clean-decode", parClean, serialClean)
	check("erasure-decode", parErased, serialErased)

	// The engine's shape: one code and one erasure plan — one subproduct
	// tree and weight vector each — decoded against from four goroutines
	// at once, the tree walks inside forking onto par workers.
	restore := par.SetParallelism(4)
	defer restore()
	plan, err := c.ErasurePlan(erased)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				m1, c1, l1, e1 := c.Decode(received)
				check("shared code", result{m1, c1, l1, e1}, serialClean)
				m2, c2, l2, e2 := plan.Decode(received)
				check("shared plan", result{m2, c2, l2, e2}, serialErased)
			}
		}()
	}
	wg.Wait()
}

// TestDecodeParallelRefusesBeyondRadius pins the order of the decode's
// tail. The word is built so that Euclid stops at v = c·(x−a)² for a grid
// point a, with g = (x−a)·h, h(a) ≠ 0: v does not divide g, so the
// quotient refuses, while the locator finds the root a, at which
// v'(a) = 0. open at that root would invert zero; it must not run before
// the quotient's verdict, at any parallelism.
func TestDecodeParallelRefusesBeyondRadius(t *testing.T) {
	c, _, _, _ := decodeBoundWords(t)
	f, ring := c.Field(), c.ring
	e, d := len(c.points), c.d
	const a = 700
	rng := rand.New(rand.NewSource(5))
	stop := (e + d + 1) / 2
	h := randMessage(rng, f, stop-2)
	for f.Horner(h, a) == 0 {
		h[0] = f.Add(h[0], 1)
	}
	g := ring.Mul([]uint64{f.Neg(a), 1}, h)
	word := make([]uint64, e)
	for i := range word {
		if i != a {
			x := uint64(i)
			word[i] = f.Div(f.Horner(g, x), f.Mul(f.Sub(x, a), f.Sub(x, a)))
		}
	}
	_, v := ring.PartialXGCD(c.ps.Product(), c.ps.Interpolate(word), stop)
	if poly.Degree(v) != 2 || f.Horner(v, a) != 0 || f.Horner(ring.Derivative(v), a) != 0 {
		t.Fatalf("Euclid's locator %v is not c·(x−%d)²", v, a)
	}
	for _, workers := range []int{1, 4} {
		restore := par.SetParallelism(workers)
		_, _, _, err := c.Decode(word)
		restore()
		if !errors.Is(err, ErrDecodeFailure) {
			t.Fatalf("parallelism %d: Decode = %v, want ErrDecodeFailure", workers, err)
		}
	}
}
