// Chaos: the paper's Camelot among bad Knights and on a bad network —
// content faults and delivery faults in one walkthrough. Eight Knights
// count triangles. First the scene of the paper's §1.1: Lady Morgana
// enchants two of them into telling every listener a different lie; the
// honest Knights error-correct the shares, name the enchanted ones from
// the decoded error locations alone, and deliver the proof of a calm
// run. Then the network itself misbehaves: two Knights' broadcasts are
// lost outright and every surviving scroll arrives twice. Both kinds of
// weather are one fault record (camelot.Adversary), which each faulty
// Knight applies to the scroll it sends; the decoders are never told
// who was faulty. The collector
// gathers by quorum instead of insisting on every message, the decoders
// treat the lost Knights' coordinates as Reed–Solomon erasures, and the
// proof still comes out bit-identical to a calm-weather run.
// Then the storm worsens past the code's budget: left alone, the run
// fails loudly with a typed decode error instead of lying — but with a
// repair round allowed, surviving Knights recompute the lost ranges and
// the same hurricane ends in the same proof, a little later.
//
// The bad-weather half runs twice: once over the in-memory broadcast
// bus and once with every scroll travelling a length-prefixed binary
// frame over a loopback TCP socket. The transport carries the same one
// message kind either way, so the weather and the proofs are the same.
// (Knights in separate OS processes are examples/multiproc.)
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"camelot"
)

const k = 8

func main() {
	ctx := context.Background()
	g := camelot.RandomGraph(32, 0.3, 11)
	p, err := camelot.NewTriangleProblem(g)
	if err != nil {
		log.Fatal(err)
	}

	// Calm weather first: the reference proofs on a perfect bus, one per
	// fault tolerance the storms below run at (f lengthens the codeword,
	// so proofs are comparable byte for byte only at equal f).
	calmCluster := camelot.NewCluster(camelot.WithNodes(k))
	defer calmCluster.Close()
	calm := func(faults int) (*camelot.Proof, *camelot.Report) {
		proof, rep, err := calmCluster.Submit(ctx, p, camelot.WithSeed(5), camelot.WithFaultTolerance(faults)).Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		return proof, rep
	}
	calmProof, calmRep := calm(0)
	count, err := p.Count(calmProof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calm run:  %v triangles (degree %d proof)\n", count, calmRep.Degree)

	// twoBlocks is the least f at which the code absorbs two whole node
	// blocks of ⌈e/8⌉ points, e = d+1+2f, when a unit of f pays for
	// perUnit damaged symbols: one wrong symbol, or two missing ones.
	twoBlocks := func(perUnit int) int {
		f := 0
		for perUnit*f < 2*((calmRep.Degree+1+2*f+k-1)/k) {
			f++
		}
		return f
	}

	// Enchantment: Knights 2 and 5 equivocate — different garbage to
	// every recipient, so every Knight decodes a word of its own.
	// The radius f must swallow both their blocks.
	radius := twoBlocks(1)
	enchantedCalm, _ := calm(radius)
	proof, rep, err := calmCluster.Submit(ctx, p, camelot.WithSeed(5), camelot.WithFaultTolerance(radius),
		camelot.WithAdversary(camelot.Adversary{Seed: 13, Equivocators: []int{2, 5}})).Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	mustEqual("enchanted", enchantedCalm, proof)
	fmt.Printf("enchanted run: %d of %d shares corrupted (radius %d), culprits named from the error locations: %v\n",
		rep.CorruptedShares, rep.CodeLength, radius, rep.SuspectNodes)
	fmt.Printf("               %d decodes, one per Knight's word, agree on the calm run's proof, verified: %v\n", rep.Decodes, rep.Verified)

	// Storm: nodes 2 and 6 are unreachable and every delivered message
	// is duplicated. Losing 2 of 8 nodes erases 2·⌈e/8⌉ coordinates, so
	// pick f with 2f ≥ that budget.
	storm := camelot.Adversary{Seed: 77, DropNodes: []int{2, 6}, DupRate: 1.0}
	faults := twoBlocks(2)
	stormCalm, _ := calm(faults)
	hurricaneCalm, _ := calm(1)

	for _, network := range []struct {
		name string
		opts []camelot.ClusterOption
	}{
		{"in-memory bus", nil},
		// WithListenAddr binds an ephemeral port per run and the senders
		// dial whatever was bound: every broadcast crosses a real socket.
		{"loopback TCP", []camelot.ClusterOption{camelot.WithListenAddr("127.0.0.1:0")}},
	} {
		fmt.Printf("\n— %s —\n", network.name)
		opts := append([]camelot.ClusterOption{camelot.WithNodes(k)}, network.opts...)
		badWeather(ctx, camelot.NewCluster(opts...), p, storm, faults, stormCalm, hurricaneCalm)
	}
	fmt.Println("\nlies were corrected and named; the storm beyond the budget became latency, not failure — on either network")
}

// badWeather runs the storm, the hurricane and the healed hurricane on
// one cluster and checks each recovered proof against the calm run's,
// byte for byte.
func badWeather(ctx context.Context, cluster *camelot.Cluster, p camelot.CountingProblem, storm camelot.Adversary, faults int, stormCalm, hurricaneCalm *camelot.Proof) {
	defer cluster.Close()
	proof, rep, err := cluster.Submit(ctx, p,
		camelot.WithAdversary(storm),
		camelot.WithSeed(5),
		camelot.WithFaultTolerance(faults),
		camelot.WithMaxErasures(2),
		camelot.WithGatherGrace(500*time.Millisecond),
	).Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	mustEqual("storm", stormCalm, proof)
	fmt.Printf("storm run: lost couriers %v decoded as erasures (f=%d), proof bit-identical to the calm run\n",
		rep.MissingNodes, faults)
	fmt.Println("           delivery faults never entered the suspect list:", rep.SuspectNodes)

	// Worse weather than the code can carry: with f=1 the budget is 2
	// erasures, and the two dead Knights own far more coordinates than
	// that. Without repair the run must refuse, honestly and typed.
	hurricane := []camelot.RunOption{
		camelot.WithAdversary(storm),
		camelot.WithSeed(5),
		camelot.WithFaultTolerance(1),
		camelot.WithMaxErasures(2),
		camelot.WithGatherGrace(300 * time.Millisecond),
	}
	if _, _, err = cluster.Submit(ctx, p, hurricane...).Wait(ctx); errors.Is(err, camelot.ErrDecodeFailure) {
		fmt.Println("hurricane run: refused honestly —", err)
	} else {
		log.Fatalf("hurricane run: expected a typed decode failure, got %v", err)
	}

	// The same hurricane, one repair round allowed: the decode failure
	// triggers a self-healing gather — surviving Knights recompute the
	// dead Knights' ranges (evaluation is deterministic in the point, so
	// the recomputed scrolls are the very scrolls the dead would have
	// sent) over the same transport, and the retried decode succeeds
	// with the bit-identical proof.
	proof, rep, err = cluster.Submit(ctx, p, append(hurricane, camelot.WithMaxRepairRounds(1))...).Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	mustEqual("healed", hurricaneCalm, proof)
	healed, err := p.Count(proof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healed run: %v triangles — %d repair round(s) recovered Knights %v\n",
		healed, rep.RepairRounds, rep.RepairedNodes)
}

// mustEqual compares two proofs by their wire encoding — the strictest
// bit-identity check the format offers.
func mustEqual(what string, calm, got *camelot.Proof) {
	a, err := calm.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	b, err := got.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		log.Fatalf("%s run's proof differs from the calm run's", what)
	}
}
