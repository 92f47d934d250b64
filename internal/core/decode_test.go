package core

// The decode stage's contract: words are assembled per recipient, decoded
// once per distinct word, and must agree across words.

import (
	"bytes"
	"context"
	"errors"
	"sync"
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

// TestDecodeOncePerDistinctWord: whatever the adversary shows the honest
// nodes, the proof is the fault-free proof and the byzantine nodes are
// named; what it costs is one decode per distinct word — primes × width
// when every recipient sees the same word, one per honest recipient
// under equivocation.
func TestDecodeOncePerDistinctWord(t *testing.T) {
	ctx := context.Background()
	p := decodeTestProblem()
	clean, _, err := Run(ctx, p, decodeTestOptions(nil))
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
		{"none", NoAdversary{}, perNode},
		{"lying", NewLyingNodes(5, 2, 5), perNode},
		{"equivocating", NewEquivocatingNodes(5, 2, 5), (k - 2) * perNode},
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

// asideAdversary is a consistent liar that tells one recipient a
// different lie.
type asideAdversary struct {
	*LyingNodes
	aside int
}

func (a asideAdversary) Transform(sender, recipient int, prime uint64, coord, point int, value uint64) uint64 {
	v := a.LyingNodes.Transform(sender, recipient, prime, coord, point, value)
	if recipient == a.aside && v != value {
		v = (v + 1) % prime
		if v == value {
			v = (v + 1) % prime
		}
	}
	return v
}

// TestDecodeGroupsByWordNotByAdversary: a liar equivocating to exactly
// one recipient makes two distinct words per (prime, coordinate) — the
// words are compared, no adversary is asked what kind it is — and the
// two decode to the same proof.
func TestDecodeGroupsByWordNotByAdversary(t *testing.T) {
	adv := asideAdversary{LyingNodes: NewLyingNodes(5, 3), aside: 6}
	_, rep, err := Run(context.Background(), decodeTestProblem(), decodeTestOptions(adv))
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

// shiftedViewAdversary declares no corrupt node, yet shows one recipient
// every share plus one: a valid encoding of P+1, not of P.
type shiftedViewAdversary struct{ recipient int }

func (a shiftedViewAdversary) Transform(_, recipient int, prime uint64, _, _ int, value uint64) uint64 {
	if recipient == a.recipient {
		return (value + 1) % prime
	}
	return value
}

func (shiftedViewAdversary) CorruptNodes() []int { return nil }

// TestProofDisagreementIsTyped: two honest nodes holding valid codewords
// of different messages is corruption beyond what the run was told to
// tolerate, and the refusal is ErrProofDisagreement.
func TestProofDisagreementIsTyped(t *testing.T) {
	_, _, err := Run(context.Background(), decodeTestProblem(), decodeTestOptions(shiftedViewAdversary{recipient: 4}))
	if !errors.Is(err, ErrProofDisagreement) {
		t.Fatalf("err = %v, want ErrProofDisagreement", err)
	}
}

// cancellingAdversary equivocates, and cancels the run the first time it
// is asked for a share — from inside the decode stage, where received
// words are assembled.
type cancellingAdversary struct {
	*EquivocatingNodes
	once   sync.Once
	cancel context.CancelFunc
}

func (a *cancellingAdversary) Transform(sender, recipient int, prime uint64, coord, point int, value uint64) uint64 {
	a.once.Do(a.cancel)
	return a.EquivocatingNodes.Transform(sender, recipient, prime, coord, point, value)
}

// TestDecodeCancelledMidStage: a run cancelled inside its decode stage
// returns ctx.Err() with its Report, decodes no more words than the pool
// had workers running, and leaves no task set behind on the pool.
func TestDecodeCancelledMidStage(t *testing.T) {
	pool := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := decodeTestOptions(&cancellingAdversary{EquivocatingNodes: NewEquivocatingNodes(5, 2, 5), cancel: cancel}) // 24 decode tasks
	opts.Pool = pool
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
