package core

// The decode stage's contract: every node's view is assembled, each
// distinct word decoded once, and the words must agree.

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// decodeTestProblem is testProblem over two primes: width 2, degree 7.
func decodeTestProblem() *polyProblem {
	p := testProblem()
	p.primes = 2
	return p
}

// decodeTestOptions is the K=8 geometry every test here runs at: f=4
// gives e=16, two points per node, so two byzantine nodes corrupt four
// shares — exactly the radius.
func decodeTestOptions(adv Adversary) Options {
	return Options{Nodes: 8, FaultTolerance: 4, Adversary: adv}
}

func proofBytes(t *testing.T, p *Proof) []byte {
	t.Helper()
	raw, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDecodeOncePerDistinctWord: whatever the faulty nodes send, the
// proof is the fault-free proof and the byzantine nodes are named; what
// it costs is one decode per distinct word — primes × width when every
// node received the same word, one per node under equivocation, the
// equivocator's own view included.
func TestDecodeOncePerDistinctWord(t *testing.T) {
	ctx := context.Background()
	p := decodeTestProblem()
	clean, _, err := Run(ctx, p, decodeTestOptions(Adversary{}))
	if err != nil {
		t.Fatal(err)
	}
	want := proofBytes(t, clean)
	const k, perNode = 8, 2 * 2 // primes × width
	for _, tc := range []struct {
		name    string
		adv     Adversary
		decodes int
	}{
		{"none", Adversary{}, perNode},
		{"lying", Adversary{Seed: 5, Liars: []int{2, 5}}, perNode},
		{"equivocating", Adversary{Seed: 5, Equivocators: []int{2, 5}}, k * perNode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proof, rep, err := Run(ctx, p, decodeTestOptions(tc.adv))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Verified {
				t.Fatal("not verified")
			}
			if !bytes.Equal(proofBytes(t, proof), want) {
				t.Fatal("proof bytes differ from the fault-free run's")
			}
			if rep.Decodes != tc.decodes {
				t.Fatalf("Decodes = %d, want %d", rep.Decodes, tc.decodes)
			}
			if !sameInts(rep.SuspectNodes, tc.adv.CorruptNodes()) {
				t.Fatalf("SuspectNodes = %v, want %v", rep.SuspectNodes, tc.adv.CorruptNodes())
			}
		})
	}
}

// rewriting is a bus that hands every message to rewrite before it
// travels: the tests' way of putting on the wire what no fault record
// describes.
type rewriting struct {
	*BroadcastBus
	rewrite func(m *NodeShares)
}

func (r rewriting) Send(ctx context.Context, m NodeShares) error {
	r.rewrite(&m)
	return r.BroadcastBus.Send(ctx, m)
}

// rewritingOptions are decodeTestOptions(adv) on a bus where every
// message carries one view per recipient r: view(m, r, q, v) of each
// value v over prime q.
func rewritingOptions(adv Adversary, primes []uint64, view func(m NodeShares, r int, q, v uint64) uint64) Options {
	opts := decodeTestOptions(adv)
	opts.NewTransport = func(k int) (Transport, error) {
		return rewriting{NewBroadcastBus(k), func(m *NodeShares) {
			m.Views = make([][][][]uint64, k)
			for r := range m.Views {
				m.Views[r] = make([][][]uint64, len(m.Vals))
				for pi, coords := range m.Vals {
					for _, vals := range coords {
						out := make([]uint64, len(vals))
						for i, v := range vals {
							out[i] = view(*m, r, primes[pi], v)
						}
						m.Views[r][pi] = append(m.Views[r][pi], out)
					}
				}
			}
			m.Vals = nil
		}}, nil
	}
	return opts
}

// TestDecodeGroupsByWordNotByAdversary: a node telling everyone one lie
// and node 6 another makes two distinct words per (prime, coordinate) —
// the words are compared, nobody is asked who lied — and the two decode
// to the same proof.
func TestDecodeGroupsByWordNotByAdversary(t *testing.T) {
	p := decodeTestProblem()
	clean, _, err := Run(context.Background(), p, decodeTestOptions(Adversary{}))
	if err != nil {
		t.Fatal(err)
	}
	opts := rewritingOptions(Adversary{}, clean.Primes, func(m NodeShares, r int, q, v uint64) uint64 {
		switch {
		case m.ID != 3:
			return v
		case r == 6:
			return (v + 2) % q
		}
		return (v + 1) % q
	})
	_, rep, err := Run(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; rep.Decodes != want {
		t.Fatalf("Decodes = %d, want %d: two distinct words per prime and coordinate", rep.Decodes, want)
	}
	if !rep.Verified || !sameInts(rep.SuspectNodes, []int{3}) {
		t.Fatalf("verified=%v suspects=%v, want true and [3]", rep.Verified, rep.SuspectNodes)
	}
}

// TestProofDisagreementIsTyped: two nodes holding valid codewords of
// different messages — node 4 is shown every share plus one, a valid
// encoding of P+1, not of P — is corruption beyond what the run was
// told to tolerate, and the refusal is ErrProofDisagreement.
func TestProofDisagreementIsTyped(t *testing.T) {
	p := decodeTestProblem()
	clean, _, err := Run(context.Background(), p, decodeTestOptions(Adversary{}))
	if err != nil {
		t.Fatal(err)
	}
	opts := rewritingOptions(Adversary{}, clean.Primes, func(_ NodeShares, r int, q, v uint64) uint64 {
		if r == 4 {
			return (v + 1) % q
		}
		return v
	})
	if _, _, err := Run(context.Background(), p, opts); !errors.Is(err, ErrProofDisagreement) {
		t.Fatalf("err = %v, want ErrProofDisagreement", err)
	}
}

// TestDecodeCancelledMidStage: a run cancelled inside its decode stage
// returns ctx.Err() with its Report, decodes no more words than the pool
// had workers running, and leaves no task set behind on the pool. Two
// equivocators make 32 distinct words; the run is cancelled as the first
// is claimed, after the 4 (prime, coordinate) assembly tasks.
func TestDecodeCancelledMidStage(t *testing.T) {
	pool := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := decodeTestOptions(Adversary{Seed: 5, Equivocators: []int{2, 5}})
	opts.Pool, opts.Progress = pool, new(Progress)
	var claims atomic.Int32
	pool.claimed = func() {
		if opts.Progress.Snapshot().Stage == StageDecode && claims.Add(1) == 2*2+1 {
			cancel()
		}
	}
	_, rep, err := Run(ctx, decodeTestProblem(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Decodes > pool.Width() {
		t.Fatalf("report %+v after the cancellation: want one, with at most %d decodes (the pool width)", rep, pool.Width())
	}
	pool.mu.Lock()
	left := len(pool.runs)
	pool.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d task set(s) still on the pool after Run returned", left)
	}
	pool.Close() // returns only once every worker has exited
}
