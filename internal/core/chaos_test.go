package core

// The deterministic chaos harness: a table of seeded fault records —
// message loss, duplicate storms, delay-reordered arrivals,
// combined byzantine-plus-loss weather — asserting the protocol's two
// honest outcomes. Where the Reed–Solomon budget 2·errors + erasures
// ≤ e-d-1 covers the damage, the run must produce a proof bit-identical
// to the fault-free run; where it cannot, the run must refuse with the
// typed rs.ErrDecodeFailure instead of fabricating an answer. Every
// scenario is replayed under several seeds; CI's chaos job adds three
// more fixed seeds via -chaos-seed and runs the suite under -race.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"slices"
	"testing"
	"time"

	"camelot/internal/rs"
)

// chaosSeed is mixed into every scenario's RNG seeds, letting the CI
// matrix replay the whole table under distinct deterministic seeds:
//
//	go test -race -run Chaos ./internal/core/ -args -chaos-seed 7
var chaosSeed = flag.Int64("chaos-seed", 1, "seed mixed into every chaos scenario")

// chaosScenario is one table entry: its fault record, seeded per run
// with the mixed seed so loss patterns and lies vary across seeds while
// staying reproducible within one, over the bus or over an ephemeral
// loopback collector (a bind failure surfaces through the run as the
// factory's error).
type chaosScenario struct {
	name           string
	nodes, faults  int
	maxErasures    int
	repair         int // MaxRepairRounds (0: self-healing off)
	grace          time.Duration
	tcp            bool
	adversary      Adversary
	wantErr        error // nil: run must succeed with the baseline proof
	wantMissing    []int // exact MissingNodes to assert (nil skips)
	wantSuspects   []int // exact SuspectNodes to assert (nil skips)
	wantRepaired   []int // exact RepairedNodes to assert (nil skips)
	skipDeliveryCk bool  // scenarios whose missing set is timing-dependent
}

// chaosScenarios returns the fault table. Geometry A (k=8, f=4) puts 2
// points on each node with budget 2t+s ≤ 8: one lost node costs 2
// erasures, one lying node costs 2 errors. Geometry B (k=5, f=1) has
// budget 2, so losing two nodes (4 erasures) is unrecoverable.
func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{
			// Every message held by the network and delivered out of
			// order, none lost: the strict gather path (MaxErasures 0)
			// must hear all eight across the asynchronous hop.
			name:  "delayed-clean-strict",
			nodes: 8, faults: 4,
			adversary:    Adversary{DelayRate: 1, MaxDelay: 3 * time.Millisecond},
			wantMissing:  []int{},
			wantSuspects: []int{},
		},
		{
			// Deterministic loss of 2 of 8 nodes: 4 erasures ≤ budget 8.
			// Quorum is exactly the deliverable count, so the missing set
			// is exactly the dropped set.
			name:  "drop-within-budget",
			nodes: 8, faults: 4, maxErasures: 2, grace: 2 * time.Second,
			adversary:    Adversary{DropNodes: []int{2, 5}},
			wantMissing:  []int{2, 5},
			wantSuspects: []int{},
		},
		{
			// Every message delivered twice: dedup plus quorum counting
			// by distinct sender must shrug the storm off.
			name:  "duplicate-storm",
			nodes: 8, faults: 4, maxErasures: 2, grace: 2 * time.Second,
			adversary:      Adversary{DupRate: 1},
			skipDeliveryCk: true, // an early quorum may erase 0-2 stragglers
		},
		{
			// Every frame delayed on its way to the socket: the grace timer
			// resets per arrival, so a slow-but-alive network completes.
			name:  "tcp-all-delayed",
			nodes: 8, faults: 4, maxErasures: 2, grace: 2 * time.Second,
			tcp:            true,
			adversary:      Adversary{DelayRate: 1, MaxDelay: 3 * time.Millisecond},
			skipDeliveryCk: true,
		},
		{
			// Morgana and the weather at once: node 3 lies (2 errors),
			// node 6's broadcast is lost (2 erasures); 2·2+2 = 6 ≤ 8.
			// Delivery faults and content faults must be reported on
			// separate axes.
			name:  "adversary-plus-loss",
			nodes: 8, faults: 4, maxErasures: 1, grace: 2 * time.Second,
			adversary:    Adversary{Liars: []int{3}, DropNodes: []int{6}},
			wantMissing:  []int{6},
			wantSuspects: []int{3},
		},
		{
			// Real sockets, calm weather: the strict gather must hear
			// all eight nodes over loopback TCP frames.
			name:  "tcp-clean-strict",
			nodes: 8, faults: 4,
			tcp:          true,
			wantMissing:  []int{},
			wantSuspects: []int{},
		},
		{
			// Frames dropped off the socket: the TCP collector's quorum
			// gather plus erasure decode recovers exactly as the
			// in-memory transports do.
			name:  "tcp-drop-within-budget",
			nodes: 8, faults: 4, maxErasures: 2, grace: 2 * time.Second,
			tcp:          true,
			adversary:    Adversary{DropNodes: []int{2, 5}},
			wantMissing:  []int{2, 5},
			wantSuspects: []int{},
		},
		{
			// Morgana on a real network: a liar's corrupted content and
			// a socket that loses node 6, on separate fault axes.
			name:  "tcp-adversary-plus-loss",
			nodes: 8, faults: 4, maxErasures: 1, grace: 2 * time.Second,
			tcp:          true,
			adversary:    Adversary{Liars: []int{3}, DropNodes: []int{6}},
			wantMissing:  []int{6},
			wantSuspects: []int{3},
		},
		{
			// Losing 2 of 5 nodes erases 4 points against budget 2: the
			// decoder must refuse with the typed error.
			name:  "drop-beyond-budget",
			nodes: 5, faults: 1, maxErasures: 2, grace: 2 * time.Second,
			adversary: Adversary{DropNodes: []int{1, 3}},
			wantErr:   rs.ErrDecodeFailure,
		},
		{
			// Beyond-budget loss under a duplicate storm with a liar on
			// top: still the same typed refusal, never a wrong proof.
			name:  "combined-beyond-budget",
			nodes: 5, faults: 1, maxErasures: 2, grace: 2 * time.Second,
			adversary: Adversary{Liars: []int{4}, DropNodes: []int{0, 2}, DupRate: 1},
			wantErr:   rs.ErrDecodeFailure,
		},
		{
			// Quorum unreachable (2 lost, 1 tolerated): the grace timer
			// must fire, hand over the partial gather, and the decode
			// stage must refuse — the deadline path, typed end to end.
			name:  "grace-deadline-partial",
			nodes: 5, faults: 1, maxErasures: 1, grace: 150 * time.Millisecond,
			adversary: Adversary{DropNodes: []int{1, 3}},
			wantErr:   rs.ErrDecodeFailure,
		},
		{
			// The network loses *everything*: no arrival ever arms the
			// grace timer, so the run must end via the SendsDone signal
			// (pool finished → one grace → empty gather → typed refusal)
			// rather than hang on the caller's context.
			name:  "total-loss",
			nodes: 4, faults: 1, maxErasures: 4, grace: 150 * time.Millisecond,
			adversary: Adversary{DropRate: 1},
			wantErr:   rs.ErrDecodeFailure,
		},
		// Node-churn weather: the same beyond-budget storms, now with the
		// self-healing gather allowed to run. The dead links stay dead
		// (fate is per physical sender), but repair re-assigns the dead
		// nodes' ranges to survivors whose links are alive — so the run
		// recovers the very loss it just refused, with the bit-identical
		// proof the harness demands of every recovery.
		{
			// drop-beyond-budget (4 erasures vs budget 2), healed in one
			// round: survivors 0,2,4 sponsor the ranges of 1 and 3.
			name:  "repair-drop-beyond-budget",
			nodes: 5, faults: 1, maxErasures: 2, repair: 1, grace: 2 * time.Second,
			adversary:    Adversary{DropNodes: []int{1, 3}},
			wantMissing:  []int{},
			wantSuspects: []int{},
			wantRepaired: []int{1, 3},
		},
		{
			// The same healed storm with every delivery delayed, the
			// repair round's included: the sponsors' frames arrive late
			// and reordered over the transport round 0 left open.
			name:  "repair-delayed-beyond-budget",
			nodes: 5, faults: 1, maxErasures: 2, repair: 1, grace: 2 * time.Second,
			adversary:    Adversary{DropNodes: []int{1, 3}, DelayRate: 1, MaxDelay: 3 * time.Millisecond},
			wantMissing:  []int{},
			wantSuspects: []int{},
			wantRepaired: []int{1, 3},
		},
		{
			// And over real sockets: the TCP collector must accept the
			// repair round's frames on the same listener.
			name:  "repair-tcp-beyond-budget",
			nodes: 5, faults: 1, maxErasures: 2, repair: 1, grace: 2 * time.Second,
			tcp:          true,
			adversary:    Adversary{DropNodes: []int{1, 3}},
			wantMissing:  []int{},
			wantSuspects: []int{},
			wantRepaired: []int{1, 3},
		},
		{
			// Morgana during the repair: node 3 lies (2 errors) while the
			// network eats three broadcasts (6 erasures, 2·2+6 > 8). One
			// repair round recovers the erasures — sponsored by honest
			// survivors 0, 1, 2 — and the liar's errors then fit the
			// budget alone, staying on the content-fault axis.
			name:  "repair-adversary-plus-storm",
			nodes: 8, faults: 4, maxErasures: 3, repair: 1, grace: 2 * time.Second,
			adversary:    Adversary{Liars: []int{3}, DropNodes: []int{5, 6, 7}, DupRate: 1},
			wantMissing:  []int{},
			wantSuspects: []int{3},
			wantRepaired: []int{5, 6, 7},
		},
		{
			// A byzantine *sponsor*: with nodes 1, 5, 6 lost, the liar 3
			// is the third survivor and sponsors node 6's range — the
			// adversary corrupts what node 3 computes and sends, so the
			// repaired range arrives wrong and node 6's points decode as
			// errors attributed to their owner. 4 error points (liar's
			// own 2 plus the poisoned 2) still fit 2·4 ≤ 8: the decoder
			// corrects them all and the proof stays bit-identical.
			name:  "repair-byzantine-sponsor",
			nodes: 8, faults: 4, maxErasures: 3, repair: 1, grace: 2 * time.Second,
			adversary:    Adversary{Liars: []int{3}, DropNodes: []int{1, 5, 6}},
			wantMissing:  []int{},
			wantSuspects: []int{3, 6},
			wantRepaired: []int{1, 5, 6},
		},
		{
			// Repair cannot conjure survivors: when the network loses
			// everything there is no live link to sponsor a retry over,
			// and the run must still end in the typed refusal rather
			// than loop or hang.
			name:  "total-loss-with-repair",
			nodes: 4, faults: 1, maxErasures: 4, repair: 2, grace: 150 * time.Millisecond,
			adversary: Adversary{DropRate: 1},
			wantErr:   rs.ErrDecodeFailure,
		},
	}
}

func sameInts(a, b []int) bool { return slices.Equal(a, b) }

func proofsEqual(a, b *Proof) error {
	if len(a.Primes) != len(b.Primes) {
		return fmt.Errorf("prime count %d vs %d", len(a.Primes), len(b.Primes))
	}
	for i, q := range a.Primes {
		if b.Primes[i] != q {
			return fmt.Errorf("prime %d: %d vs %d", i, q, b.Primes[i])
		}
		for w := range a.Coeffs[q] {
			for j := range a.Coeffs[q][w] {
				if a.Coeffs[q][w][j] != b.Coeffs[q][w][j] {
					return fmt.Errorf("coeff mod %d coord %d idx %d differs", q, w, j)
				}
			}
			for j := range a.Evals[q][w] {
				if a.Evals[q][w][j] != b.Evals[q][w][j] {
					return fmt.Errorf("eval mod %d coord %d idx %d differs", q, w, j)
				}
			}
		}
	}
	return nil
}

func TestChaosScenarios(t *testing.T) {
	ctx := context.Background()
	p := testProblem() // degree 7
	baselines := map[[2]int]*Proof{}
	baseline := func(t *testing.T, nodes, faults int) *Proof {
		key := [2]int{nodes, faults}
		if pr, ok := baselines[key]; ok {
			return pr
		}
		pr, _, err := Run(ctx, p, Options{Nodes: nodes, FaultTolerance: faults})
		if err != nil {
			t.Fatalf("fault-free baseline (k=%d f=%d): %v", nodes, faults, err)
		}
		baselines[key] = pr
		return pr
	}
	for _, sc := range chaosScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, base := range []int64{3, 17, 101} {
				seed := base*1000003 + *chaosSeed
				prog := new(Progress)
				adv := sc.adversary
				adv.Seed = uint64(seed)
				opts := Options{
					Nodes:           sc.nodes,
					FaultTolerance:  sc.faults,
					Adversary:       adv,
					MaxErasures:     sc.maxErasures,
					MaxRepairRounds: sc.repair,
					GatherGrace:     sc.grace,
					Seed:            seed,
					Progress:        prog,
				}
				if sc.tcp {
					opts.NewTransport = NewTCPFactory(TCPConfig{ListenAddr: "127.0.0.1:0"})
				}
				proof, rep, err := Run(ctx, p, opts)

				if sc.wantErr != nil {
					if !errors.Is(err, sc.wantErr) {
						t.Fatalf("seed %d: err = %v, want %v", seed, err, sc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !rep.Verified {
					t.Fatalf("seed %d: recovered run not verified", seed)
				}
				// The paper's determinism claim under delivery faults:
				// whichever subset of shares survives, the decoded proof
				// is the fault-free proof, bit for bit.
				if err := proofsEqual(baseline(t, sc.nodes, sc.faults), proof); err != nil {
					t.Fatalf("seed %d: proof differs from fault-free run: %v", seed, err)
				}
				if sc.wantMissing != nil && !sameInts(rep.MissingNodes, sc.wantMissing) {
					t.Fatalf("seed %d: MissingNodes = %v, want %v", seed, rep.MissingNodes, sc.wantMissing)
				}
				if sc.wantSuspects != nil && !sameInts(rep.SuspectNodes, sc.wantSuspects) {
					t.Fatalf("seed %d: SuspectNodes = %v, want %v", seed, rep.SuspectNodes, sc.wantSuspects)
				}
				if sc.wantRepaired != nil && !sameInts(rep.RepairedNodes, sc.wantRepaired) {
					t.Fatalf("seed %d: RepairedNodes = %v, want %v", seed, rep.RepairedNodes, sc.wantRepaired)
				}
				st := prog.Snapshot()
				if st.RepairRounds != rep.RepairRounds {
					t.Fatalf("seed %d: progress saw %d repair rounds, report says %d", seed, st.RepairRounds, rep.RepairRounds)
				}
				if sc.repair == 0 && rep.RepairRounds != 0 {
					t.Fatalf("seed %d: repair disabled but report claims %d rounds", seed, rep.RepairRounds)
				}
				if !sc.skipDeliveryCk {
					// The progress delivery-fault count is the round-0
					// gather's view: everything repair later recovered plus
					// whatever stayed missing.
					if want := len(rep.MissingNodes) + len(rep.RepairedNodes); st.DeliveryFaults != want {
						t.Fatalf("seed %d: progress saw %d delivery faults, report says %d", seed, st.DeliveryFaults, want)
					}
				}
				// Every adversary in the table is consistent, so each
				// decode attempt — round 0's and one per repair round —
				// decodes at most one word per prime and coordinate.
				if perRound := len(rep.Primes) * rep.Width; rep.Decodes < perRound || rep.Decodes > (1+rep.RepairRounds)*perRound {
					t.Fatalf("seed %d: Decodes = %d, want %d per decode attempt over %d repair round(s)",
						seed, rep.Decodes, perRound, rep.RepairRounds)
				}
				// Delivery faults must never leak into the suspect list:
				// an erased slot is no symbol of any received word.
				suspect := map[int]bool{}
				for _, id := range rep.SuspectNodes {
					suspect[id] = true
				}
				for _, id := range rep.MissingNodes {
					if suspect[id] {
						t.Fatalf("seed %d: missing node %d also reported as content suspect", seed, id)
					}
				}
			}
		})
	}
}

// TestChaosLossRunsAreReproducible pins the determinism contract the
// harness rests on: the same seed yields the same missing set and the
// same proof on every replay, concurrency notwithstanding.
func TestChaosLossRunsAreReproducible(t *testing.T) {
	ctx := context.Background()
	p := testProblem()
	run := func() (*Proof, *Report) {
		proof, rep, err := Run(ctx, p, Options{
			Nodes: 8, FaultTolerance: 4, MaxErasures: 2, GatherGrace: 2 * time.Second,
			Adversary: Adversary{Seed: 99, DropNodes: []int{1, 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return proof, rep
	}
	p1, r1 := run()
	p2, r2 := run()
	if err := proofsEqual(p1, p2); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if !sameInts(r1.MissingNodes, r2.MissingNodes) || !sameInts(r1.MissingNodes, []int{1, 4}) {
		t.Fatalf("missing sets diverged or wrong: %v vs %v", r1.MissingNodes, r2.MissingNodes)
	}
}
