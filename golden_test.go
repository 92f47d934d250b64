package camelot

// Golden proofs: testdata/golden_proofs.txt stores the SHA-256 of
// Proof.MarshalBinary() per (workload, f), recorded once from a known
// commit. Every other bit-identity test in the module compares two runs
// of the same engine, which a change to the engine moves on both sides
// at once; these digests move only when the proof bytes do. Each digest
// is checked under every execution shape the engine has — strict and
// quorum gathers, a content fault, a repair round, the remote executor —
// because the paper's claim is that all of them prepare the same proof.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
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
	// goldenNodes is the node count of every shape (clamped to the
	// codeword length like the engine clamps it).
	goldenNodes = 6
)

// goldenCase is one pinned workload. Spec cases are catalog kinds at
// their defaults, which a ctrl worker can rebuild from the spec line,
// so they also run on the remote executor.
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
		{name: "chromatic", build: func() (Problem, error) {
			return chromatic.NewProblem(graph.Gnp(8, 0.4, 1))
		}},
		{name: "setcover", build: func() (Problem, error) {
			return setcover.NewCoverProblem([]uint64{0b000111, 0b011100, 0b110001, 0b101010, 0b010101, 0b100100, 0b001001}, 6, 3)
		}},
		{name: "tutte-line", build: func() (Problem, error) {
			return tutte.NewProblem(graph.RandomMultigraph(5, 6, 3), 2)
		}},
		{name: "conv3sum", build: func() (Problem, error) {
			return conv3sum.NewProblem([]uint64{3, 5, 8, 13, 2, 10, 7, 15}, 6)
		}},
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

// goldenGeometry picks the smallest fault tolerance f under which every
// shape is feasible on goldenNodes nodes — one lying node's whole block
// stays within f errors — and the nodes a lossy network must drop to
// push the erasures past the 2f budget, so that only a repair round can
// finish the run.
func goldenGeometry(t *testing.T, p Problem) (f, k int, beyond []int) {
	t.Helper()
	for f = 1; ; f++ {
		e := p.Degree() + 1 + 2*f
		k = min(goldenNodes, e)
		if (e+k-1)/k > f {
			continue
		}
		pa := core.NewPointAssignment(e, k)
		erased := 0
		for id := 1; id < k && erased <= 2*f; id++ {
			lo, hi := pa.Range(id)
			erased += hi - lo
			beyond = append(beyond, id)
		}
		if erased <= 2*f {
			t.Fatalf("degree %d: no drop set on %d nodes exceeds the erasure budget %d", p.Degree(), k, 2*f)
		}
		return f, k, beyond
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	fh, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestGoldenProofs(t *testing.T) {
	want := readGolden(t)
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			p, err := gc.build()
			if err != nil {
				t.Fatal(err)
			}
			f, k, beyond := goldenGeometry(t, p)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			check := func(shape string, proof *Proof, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s: %v", shape, err)
					return
				}
				raw, err := proof.MarshalBinary()
				if err != nil {
					t.Errorf("%s: %v", shape, err)
					return
				}
				sum := sha256.Sum256(raw)
				got := fmt.Sprintf("f=%d %s", f, hex.EncodeToString(sum[:]))
				if got != want[gc.name] {
					t.Errorf("%s: proof bytes moved\n got: %s %s\nwant: %s %s", shape, gc.name, got, gc.name, want[gc.name])
				}
			}
			base := []Option{WithNodes(k), WithFaultTolerance(f), WithSeed(1)}
			run := func(extra ...Option) (*Proof, *Report, error) {
				return RunProblem(ctx, p, append(append([]Option(nil), base...), extra...)...)
			}

			proof, _, err := run()
			check("bus", proof, err)

			proof, rep, err := run(WithAdversary(LyingNodes(7, 1)))
			check("bus+liar", proof, err)
			if err == nil && (len(rep.SuspectNodes) != 1 || rep.SuspectNodes[0] != 1) {
				t.Errorf("bus+liar: suspects %v, want [1]", rep.SuspectNodes)
			}

			proof, rep, err = run(WithLossyTransport(LossyConfig{DropNodes: []int{1}}),
				WithMaxErasures(1), WithGatherGrace(5*time.Second))
			check("lossy-within-budget", proof, err)
			if err == nil && (len(rep.MissingNodes) != 1 || rep.RepairRounds != 0) {
				t.Errorf("lossy-within-budget: missing %v after %d repair rounds, want node 1 erased and no repair",
					rep.MissingNodes, rep.RepairRounds)
			}

			proof, rep, err = run(WithLossyTransport(LossyConfig{DropNodes: beyond}),
				WithMaxErasures(len(beyond)), WithMaxRepairRounds(1), WithGatherGrace(5*time.Second))
			check("lossy-repaired", proof, err)
			if err == nil && (rep.RepairRounds != 1 || len(rep.RepairedNodes) != len(beyond)) {
				t.Errorf("lossy-repaired: %d repair rounds healed %v, want one round healing %v",
					rep.RepairRounds, rep.RepairedNodes, beyond)
			}

			if gc.spec == "" {
				return
			}
			co, err := NewCoordinator(k, CoordinatorConfig{Workload: gc.spec, ListenAddr: "127.0.0.1:0", MinWorkers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := ServeNode(ctx, NodeConfig{Join: co.Addr()}); err != nil && ctx.Err() == nil {
						t.Errorf("remote: worker: %v", err)
					}
				}()
			}
			proof, _, err = run(co.AsTransport())
			check("remote", proof, err)
			if err != nil {
				cancel() // workers of a run that never finished would wait for it forever
			}
			wg.Wait()
		})
	}
}
