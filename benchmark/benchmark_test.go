package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	samples := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {12.5, 15},
	} {
		if got := percentile(samples, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if samples[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 10}, {20, 90, 2}, {99, 90, 9}, {30000, 99, 300}} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// TestSelfTime pins the definition: a span's self time is its duration
// minus the part of its interval its children cover, overlaps counted
// once and children clipped to the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out by 20
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 20, 3: 30, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// TestBudgetSumsToWall drives the tracer the way an op does — nested
// begin/end spans, stage spans placed from durations — and checks that
// the budget rows, "other" included, add up to the op wall exactly, even
// when a stage claims more time than its parent has.
func TestBudgetSumsToWall(t *testing.T) {
	tr := newTracer()
	for op := 0; op < 3; op++ {
		root := tr.begin(op, 0, "op")
		parse := tr.begin(op, root, "spec.parse")
		time.Sleep(time.Millisecond)
		tr.end(parse)
		run := tr.begin(op, root, "cluster.run")
		time.Sleep(3 * time.Millisecond)
		tr.end(run)
		tr.add(run, "engine.compute", 0, time.Millisecond)
		tr.add(run, "engine.decode", time.Millisecond, time.Millisecond)
		tr.add(run, "engine.verify", 2*time.Millisecond, time.Hour) // clipped
		tr.end(root)
		teardown := tr.begin(op, 0, "ctrl.teardown") // after the op: not in its budget
		tr.end(teardown)
	}
	probe := tr.begin(-1, 0, "rs.encode") // probes are not in the budget either
	tr.end(probe)

	rows, wall := budget(tr.snapshot())
	var sum time.Duration
	for _, d := range rows {
		sum += d
	}
	if sum != wall || wall == 0 {
		t.Errorf("budget rows sum to %v, op wall is %v", sum, wall)
	}
	for _, row := range []string{"other", "spec.parse", "cluster.submit_overhead", "engine.compute", "engine.decode", "engine.verify"} {
		if _, ok := rows[row]; !ok {
			t.Errorf("budget has no row %q", row)
		}
	}
	for _, row := range []string{"ctrl.teardown", "rs.encode", "op", "cluster.run"} {
		if _, ok := rows[row]; ok {
			t.Errorf("budget has a row %q", row)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin(0, 0, "op"); id != 0 || nilTracer.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
	nilTracer.end(0)
	nilTracer.add(0, "x", 0, 0)
}

// TestReferenceHostTime pins the conversion: work beside which the
// kernel took twice its reference time counts for half as long, or for
// two thirds where only half of it slows with the kernel; a nil
// calibrator leaves times as measured; and a window's totals add its
// stretches up after conversion, system time unconverted.
func TestReferenceHostTime(t *testing.T) {
	if got := scale(2*kernelRefMs, 2*kernelRefMs, 1); got != 0.5 {
		t.Errorf("scale at half speed = %v, want 0.5", got)
	}
	if got := scale(kernelRefMs, 3*kernelRefMs, 1); got != 0.5 {
		t.Errorf("scale between full and third speed = %v, want 0.5", got)
	}
	if got := scale(2*kernelRefMs, 2*kernelRefMs, 0.5); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("scale at half speed, half of the work slowed = %v, want 2/3", got)
	}
	var none *calibrator
	if got := scale(none.point(), none.single().point(), 1); got != 1 {
		t.Errorf("scale of a nil calibrator = %v, want 1", got)
	}
	if got := newCalibrator(2).single().point(); !(got > 0) {
		t.Errorf("calibration point = %v ms, want a time", got)
	}
	win := window{stretches: []stretch{
		{wall: 2 * time.Second, user: 4 * time.Second, system: time.Second, alloc: 10, scale: 0.75, userScale: 0.5},
		{wall: time.Second, user: time.Second, alloc: 5, scale: 1, userScale: 1},
	}}
	if wall, cpu, alloc := win.totals(); wall != 2.5 || cpu != 4 || alloc != 15 {
		t.Errorf("totals = %v s, %v s, %d bytes, want 2.5, 4, 15", wall, cpu, alloc)
	}
	for _, w := range workloads {
		if !(w.hostShare > 0 && w.hostShare <= 1 && w.setupShare > 0 && w.setupShare <= 1) {
			t.Errorf("%s: host shares %v and %v, want both in (0, 1]", w.name, w.hostShare, w.setupShare)
		}
	}
}

func TestSpecSequence(t *testing.T) {
	for _, w := range workloads {
		distinct := make(map[string]bool)
		for i := 0; i < 200; i++ {
			a, b := w.specAt(7, i), w.specAt(7, i)
			if a != b {
				t.Fatalf("%s: op %d of seed 7 is %q, then %q", w.name, i, a, b)
			}
			if a == w.specAt(8, i) {
				t.Errorf("%s: op %d is %q under seeds 7 and 8", w.name, i, a)
			}
			if _, err := referenceCount(a); err != nil && i < 3 {
				t.Errorf("%s: oracle cannot read %q: %v", w.name, a, err)
			}
			distinct[a] = true
		}
		want := 200
		if w.name == "serve_hot" {
			want = hotPoolSize // it must keep asking for the same few proofs
		}
		if len(distinct) != want {
			t.Errorf("%s: 200 ops name %d distinct specs, want %d", w.name, len(distinct), want)
		}
	}
}

func TestReferenceCounts(t *testing.T) {
	complete := func(n int) [][]bool {
		adj := make([][]bool, n)
		for u := range adj {
			adj[u] = make([]bool, n)
			for v := range adj[u] {
				adj[u][v] = u != v
			}
		}
		return adj
	}
	if got := refCliques(complete(7), 3); got != 35 {
		t.Errorf("triangles of K7 = %d, want 35", got)
	}
	if got := refCliques(complete(8), 6); got != 28 {
		t.Errorf("6-cliques of K8 = %d, want 28", got)
	}
	if got := refHamiltonianCycles(complete(6)); got != 60 { // (n-1)!/2
		t.Errorf("Hamiltonian cycles of K6 = %d, want 60", got)
	}
	ones := [][]int64{{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}}
	if got := refPermanent(ones); got.Int64() != 24 {
		t.Errorf("permanent of the all-ones 4×4 matrix = %v, want 24", got)
	}
	if got := refPermanent([][]int64{{1, 2}, {3, 4}}); got.Int64() != 10 {
		t.Errorf("permanent of [[1 2] [3 4]] = %v, want 10", got)
	}
	// (x1 ∨ x2) ∧ (¬x1 ∨ x3) over 3 variables has 4 models.
	if got := refCountSAT(3, [][]int{{1, 2}, {-1, 3}}); got != 4 {
		t.Errorf("#SAT = %d, want 4", got)
	}
	if _, err := referenceCount("warlocks n=3"); err == nil {
		t.Error("oracle accepted an unknown kind")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the program
// equal: the same workloads with the same reasons, the same metrics with
// the same units, directions and bounds, and well-formed names.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the program's window is %d s", file.RunSeconds, runSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	wellFormed := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not well-formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		wellFormed(w.name)
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, {%s %s} in the program", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	compare := func(list string, file, program []metricDef) {
		if len(file) != len(program) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", list, len(file), len(program))
		}
		for i, d := range program {
			wellFormed(d.Name)
			if file[i] != d {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", list, i, file[i], d)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd)
	compare("per_layer", file.PerLayer, perLayer)
}

// smoke is the scale the self-tests run at: two ops per workload.
func smoke(w *workload, trace bool) runConfig {
	return runConfig{workload: w, seed: 1, window: time.Minute, maxOps: 2, trace: trace, setups: 1, warmups: 1, reps: 1}
}

// TestSmokeUntraced runs every workload's untraced pass on two ops: no
// op may fail the oracle, and every end-to-end metric must come out.
func TestSmokeUntraced(t *testing.T) {
	for _, w := range workloads {
		res, err := run(context.Background(), smoke(w, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Attempted != 2 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, res.Attempted, res.Failed, res.Failures)
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s is %+v (present: %v)", w.name, d.Name, m, ok)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, %d declared", w.name, len(res.Metrics), len(endToEnd))
		}
	}
}

// TestSmokeTraced runs the traced pass of the two cheapest workloads,
// one networked and one over HTTP: every per-layer metric must come out,
// and the budget rows must add up to the whole op wall.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"ctrl_workers", "serve_cold"} {
		res, err := run(context.Background(), smoke(workloadByName(name), true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d ops failed: %v", name, res.Failed, res.Failures)
		}
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s is %+v (present: %v)", name, d.Name, m, ok)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics reported, %d declared", name, len(res.Metrics), len(perLayer))
		}
		total := 0.0
		for _, share := range res.Budget {
			total += share
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: budget shares add up to %v, want 1", name, total)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("%s: result does not marshal: %v", name, err)
		}
	}
}
