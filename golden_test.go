package camelot

// The one conformance table. testdata/golden_proofs.txt stores the
// SHA-256 of Proof.MarshalBinary() per (workload, f), recorded once from
// a known commit: unlike two runs of one engine, a digest moves only when
// the proof bytes do. The paper promises the same proof however nodes
// fail, up to the Reed–Solomon radius, with the failed nodes named.
// TestGoldenProofs runs every golden case on the bus and ctrl shapes
// under every fault schedule (TCP: none and drop; serve: none); each row
// computes from the geometry whether 2·errors + erasures ≤ e−d−1 = 2f
// and expects exactly one outcome: the pinned digest with the exact
// suspects, missing nodes and decode count, or a typed ErrDecodeFailure.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"camelot/internal/chromatic"
	"camelot/internal/conv3sum"
	"camelot/internal/core"
	"camelot/internal/csp"
	"camelot/internal/graph"
	"camelot/internal/setcover"
	"camelot/internal/tensor"
	"camelot/internal/tutte"
)

const (
	goldenFile = "testdata/golden_proofs.txt"
	// goldenNodes is every shape's node count, clamped to e as runs are.
	goldenNodes = 6
)

// goldenCase is one pinned workload. Spec cases are catalog kinds at
// their defaults, which a ctrl worker and the proof service can rebuild
// from the spec line, so they also run on those shapes.
type goldenCase struct {
	name  string
	spec  string
	build func() (Problem, error)
}

// goldenCases is every catalog kind at its defaults plus five instances
// pinned through internal constructors. The instance cases were named
// first, so a kind whose name one of them holds is filed as "<kind>-spec".
func goldenCases() []goldenCase {
	cases := []goldenCase{
		{name: "chromatic", build: func() (Problem, error) { return chromatic.NewProblem(graph.Gnp(8, 0.4, 1)) }},
		{name: "setcover", build: func() (Problem, error) {
			return setcover.NewCoverProblem([]uint64{0b000111, 0b011100, 0b110001, 0b101010, 0b010101, 0b100100, 0b001001}, 6, 3)
		}},
		{name: "tutte-line", build: func() (Problem, error) { return tutte.NewProblem(graph.RandomMultigraph(5, 6, 3), 2) }},
		{name: "conv3sum", build: func() (Problem, error) { return conv3sum.NewProblem([]uint64{3, 5, 8, 13, 2, 10, 7, 15}, 6) }},
		{name: "csp", build: func() (Problem, error) {
			return csp.NewProblem(csp.RandomSystem(6, 2, 5, 0.5, 1), tensor.Strassen())
		}},
	}
	taken := map[string]bool{}
	for _, gc := range cases {
		taken[gc.name] = true
	}
	for _, k := range Kinds() {
		name := k.Name
		if taken[name] {
			name += "-spec"
		}
		cases = append(cases, goldenCase{name: name, spec: k.Name, build: func() (Problem, error) {
			w, err := ParseWorkload(k.Name)
			if err != nil {
				return nil, err
			}
			return w.Problem, nil
		}})
	}
	return cases
}

// goldenGeometry is one case's run geometry: the smallest fault
// tolerance f under which one lying node's whole block stays within f
// errors on goldenNodes nodes, the point split, and the shortest
// prefixes of nodes 1, 2, … whose blocks exceed the radius as errors
// (over) and as erasures (beyond).
type goldenGeometry struct {
	f, k         int
	pa           core.PointAssignment
	over, beyond []int
}

func newGoldenGeometry(t *testing.T, p Problem) goldenGeometry {
	t.Helper()
	for f := 1; ; f++ {
		e := p.Degree() + 1 + 2*f
		g := goldenGeometry{f: f, k: min(goldenNodes, e)}
		if (e+g.k-1)/g.k > f {
			continue
		}
		g.pa = core.NewPointAssignment(e, g.k)
		g.over, g.beyond = g.prefixBeyond(f), g.prefixBeyond(2*f)
		if g.beyond == nil {
			t.Fatalf("degree %d: no drop set on %d nodes exceeds the erasure budget %d", p.Degree(), g.k, 2*f)
		}
		return g
	}
}

// held is the number of points the given nodes hold.
func (g goldenGeometry) held(nodes []int) (n int) {
	for _, id := range nodes {
		lo, hi := g.pa.Range(id)
		n += hi - lo
	}
	return n
}

// prefixBeyond is the shortest prefix of nodes 1, 2, … holding more
// than budget points, nil if even nodes 1..k−1 hold no more.
func (g goldenGeometry) prefixBeyond(budget int) (nodes []int) {
	for id := 1; id < g.k && g.held(nodes) <= budget; id++ {
		nodes = append(nodes, id)
	}
	if g.held(nodes) <= budget {
		return nil
	}
	return nodes
}

// goldenSchedule is one fault schedule: liars (alike to every recipient
// or equivocating), nodes whose broadcasts the network loses (the crash
// model), repair rounds, and whether it also runs over loopback TCP (a
// strict and a quorum gather there).
type goldenSchedule struct {
	name       string
	liars      []int
	equivocate bool
	drop       []int
	repair     int
	tcp        bool
}

func (g goldenGeometry) schedules() []goldenSchedule {
	return []goldenSchedule{
		{name: "none", tcp: true},
		{name: "liar", liars: []int{1}},
		{name: "equivocator", liars: []int{1}, equivocate: true},
		{name: "drop", drop: []int{1}, tcp: true},
		{name: "drop-repaired", drop: g.beyond, repair: 1},
		{name: "liars-beyond", liars: g.over},
		{name: "drop-beyond", drop: g.beyond},
	}
}

// options are s's run options. A drop gathers in quorum mode with every
// dropped node allowed missing, so no gather waits for its grace, and
// the network delivers half the surviving broadcasts twice.
func (g goldenGeometry) options(s goldenSchedule) []Option {
	opts := []Option{WithFaultTolerance(g.f), WithSeed(1), WithMaxRepairRounds(s.repair)}
	adv := Adversary{Seed: 7, Liars: s.liars}
	if s.equivocate {
		adv.Liars, adv.Equivocators = nil, s.liars
	}
	if s.drop != nil {
		adv.DropNodes, adv.DupRate = s.drop, 0.5
		opts = append(opts, WithMaxErasures(len(s.drop)), WithGatherGrace(5*time.Second))
	}
	return append(opts, WithAdversary(adv))
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for line := range strings.Lines(string(data)) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = rest
	}
	return want
}

func TestGoldenProofs(t *testing.T) {
	want := readGolden(t)
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			p, err := gc.build()
			if err != nil {
				t.Fatal(err)
			}
			g := newGoldenGeometry(t, p)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			digest := func(shape string, raw []byte) {
				t.Helper()
				sum := sha256.Sum256(raw)
				if got := fmt.Sprintf("f=%d %s", g.f, hex.EncodeToString(sum[:])); got != want[gc.name] {
					t.Errorf("%s: proof bytes moved\n got: %s %s\nwant: %s %s", shape, gc.name, got, gc.name, want[gc.name])
				}
			}
			// check holds one row to the outcome its geometry allows.
			check := func(shape string, s goldenSchedule, proof *Proof, rep *Report, err error) {
				t.Helper()
				errs, erased := g.held(s.liars), g.held(s.drop)
				missing, repaired, rounds := s.drop, []int(nil), 0
				if s.repair > 0 && 2*errs+erased > 2*g.f {
					// One round re-assigns every lost range to a survivor.
					erased, missing, repaired, rounds = 0, nil, s.drop, 1
				}
				if 2*errs+erased > 2*g.f {
					if !errors.Is(err, ErrDecodeFailure) {
						t.Errorf("%s: %d errors and %d erasures exceed 2f = %d: got %v, want ErrDecodeFailure",
							shape, errs, erased, 2*g.f, err)
					}
					return
				}
				if err != nil {
					t.Errorf("%s: %v", shape, err)
					return
				}
				raw, err := proof.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				digest(shape, raw)
				words := 1 // distinct received words per (prime, coordinate)
				if s.equivocate {
					words = g.k // every node, the equivocator too, sees its own
				}
				got := fmt.Sprint(rep.Verified, rep.SuspectNodes, rep.MissingNodes, rep.RepairedNodes, rep.RepairRounds, rep.Decodes, rep.CorruptedShares)
				if exp := fmt.Sprint(true, s.liars, missing, repaired, rounds, words*rep.Width*len(rep.Primes), errs); got != exp {
					t.Errorf("%s: verified, suspects, missing, repaired, repair rounds, decodes, corrupted shares = %s, want %s", shape, got, exp)
				}
			}

			// The bus and TCP rows share one cluster's pool and codes, and
			// take their transport as a per-run option, as one-shot calls do.
			cl := NewCluster(WithNodes(g.k))
			defer cl.Close()
			for _, s := range g.schedules() {
				shapes := map[string][]Option{"bus": nil}
				if s.tcp {
					shapes["tcp"] = []Option{WithListenAddr("127.0.0.1:0")}
				}
				for transport, opts := range shapes {
					shape := transport + "/" + s.name
					job := cl.start(ctx, p, resolve(cl.base, append(opts, g.options(s)...)))
					proof, rep, err := job.Wait(ctx)
					check(shape, s, proof, rep, err)
					if got := job.Status().DeliveryFaults; got != len(s.drop) {
						t.Errorf("%s: status counts %d delivery faults, want %d", shape, got, len(s.drop))
					}
				}
			}
			if gc.spec == "" {
				return
			}

			// ctrl: per schedule, a coordinator and two worker daemons for
			// g.k logical nodes, every frame authenticated, through the
			// one-shot facade; the schedule travels in the manifests.
			secret := []byte("golden-secret")
			for _, s := range g.schedules() {
				co, err := NewCoordinator(g.k, CoordinatorConfig{Workload: gc.spec, ListenAddr: "127.0.0.1:0", Secret: secret, MinWorkers: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer co.Close()
				var wg sync.WaitGroup
				for range 2 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := ServeNode(ctx, NodeConfig{Join: co.Addr(), Secret: secret}); err != nil {
							t.Errorf("ctrl/%s: worker: %v", s.name, err)
						}
					}()
				}
				proof, rep, err := RunProblem(ctx, co.Workload().Problem, append([]Option{WithNodes(g.k), co.AsTransport()}, g.options(s)...)...)
				check("ctrl/"+s.name, s, proof, rep, err)
				// Failed or not, the run closed the coordinator: Done ends every worker.
				wg.Wait()
			}

			// serve: prepared on three nodes (bytes depend on spec and f
			// alone), then served again from the cache.
			scl := NewCluster(WithNodes(3))
			defer scl.Close()
			srv := NewServer(scl, ServerConfig{FaultTolerance: g.f})
			defer srv.Close()
			for _, state := range []string{"running", "cached"} {
				out, err := srv.Submit("golden", gc.spec)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := srv.Result(ctx, out.Digest)
				if err != nil {
					t.Fatal(err)
				}
				if out.State != state {
					t.Errorf("serve: submission is %q, want %q", out.State, state)
				}
				digest("serve/"+out.State, raw)
			}
		})
	}
}
