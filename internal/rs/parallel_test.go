package rs

// Parallel-vs-serial equivalence for the Gao decoder (satellite of
// ISSUE 6): the decode pipeline (interpolation up the code's subproduct
// tree) picks up parallelism from internal/par through poly, and
// exact modular arithmetic means the parallel execution must reproduce
// the serial result bit for bit — message, corrected word, and error
// locations alike. CI's -race leg runs this with real interleavings.

import (
	"math/rand"
	"sync"
	"testing"

	"camelot/internal/par"
)

func TestDecodeParallelMatchesSerial(t *testing.T) {
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
	erased := []int{3, 99, 1044}

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
	restore = par.SetParallelism(4)
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
