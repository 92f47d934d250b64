package main

// One run: set a workload up, drive its closed loop for the timed
// window, check every answer against the oracle, and turn what was
// observed into metrics. A run measures one workload in one pass: the
// untraced pass yields the end-to-end metrics, the traced pass the
// per-layer ones.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"camelot"
)

// opTimeout bounds one op; an op that exceeds it counts as failed.
const opTimeout = 60 * time.Second

// maxVerified is how many retained proofs the independent verifier is
// timed on after the window: eight of each spec where four rotate, few
// enough that each is timed several times over.
const maxVerified = 32

// runConfig is everything that shapes a run.
type runConfig struct {
	workload *workload
	seed     int64
	window   time.Duration // length of the timed window
	maxOps   int           // stop the window after this many ops; 0 = no cap
	trace    bool
	setups   int // set-ups timed for setup_s, at least (the last one is used)
	// settingUp is how long set-ups are repeated for, so that a workload
	// that sets up in milliseconds reports the median of many.
	settingUp time.Duration
	warmups   int // untimed ops per set-up
	reps      int // repetitions per probe in the traced pass
	// verifying is how long the independent verifier is timed for after
	// the window; it makes at least one pass over the retained proofs.
	verifying time.Duration
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what a run reports.
type runResult struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Samples   int    `json:"samples"` // op latencies behind the percentiles
	// KernelMs is the median calibration point of the window, and
	// MeasuredP50Ms the median op latency before conversion to
	// reference-host time: what the host was doing, for the reader.
	KernelMs      float64            `json:"kernel_ms"`
	MeasuredP50Ms float64            `json:"measured_p50_ms"`
	Metrics       map[string]metric  `json:"metrics"`
	Budget        map[string]float64 `json:"budget,omitempty"` // share of op wall per row (traced pass)
	Failures      []string           `json:"failures,omitempty"`
	spans         []span
}

// stretch is one segment of the timed loop, between two calibration
// points: what the ops in it cost as measured, the factor that converts
// its wall-clock times to reference-host time, and the factor that does
// the same for CPU time in user mode.
type stretch struct {
	wall, user, system time.Duration
	alloc              uint64 // bytes allocated
	scale, userScale   float64
}

// window is what the timed loop observed.
type window struct {
	results   []opResult // every op, stretch by stretch
	stretches []stretch
	kernelMs  []float64 // the calibration points
}

// totals is the window's op time (calibration points left out) and CPU
// time in reference-host seconds, and the bytes it allocated. Of the CPU
// time only the part in user mode is converted: a busy neighbour slows
// this process's loads and stores, not the kernel's work on its behalf.
func (w window) totals() (wall, cpu float64, alloc uint64) {
	for _, st := range w.stretches {
		wall += st.wall.Seconds() * st.scale
		cpu += st.user.Seconds()*st.userScale + st.system.Seconds()
		alloc += st.alloc
	}
	return wall, cpu, alloc
}

// setUp opens the workload and runs its warm-up ops: they fill the
// geometry cache, the field memo and the NTT plan tables before timing.
func setUp(ctx context.Context, cfg runConfig) (env, error) {
	e, err := cfg.workload.open(ctx, cfg.workload, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.workload.name, err)
	}
	for j := 0; j < cfg.warmups; j++ {
		if res := runOp(ctx, e, warmupBase+j, nil); res.err != nil {
			e.close()
			return nil, fmt.Errorf("%s: warm-up op: %w", cfg.workload.name, res.err)
		}
	}
	return e, nil
}

func runOp(ctx context.Context, e env, i int, tr *tracer) opResult {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	res := e.op(ctx, i, tr)
	res.index = i
	return res
}

// traced reports whether op i of a traced run records spans.
func traced(i int) bool { return (i/traceBlock)%2 == 0 }

// traceBlock is how many consecutive ops share a tracing decision: a
// multiple of the four-spec rotation, so the traced and the untraced ops
// run the same mix of specs.
const traceBlock = 4

// drive runs the closed loop: each client takes the next op index and
// issues it only after its previous op returned. The window is cut into
// stretches of one segment, with a calibration point before the first,
// between any two and after the last; an op's times are converted with
// the two points around its stretch. In a traced run every second block
// of ops is traced, so traced and untraced latencies come from the same
// window.
func drive(ctx context.Context, cfg runConfig, e env, tr *tracer, cal *calibrator) (window, error) {
	var win window
	var next atomic.Int64
	deadline := time.Now().Add(cfg.window)
	before := cal.point()
	win.kernelMs = append(win.kernelMs, before)
	for time.Now().Before(deadline) && (cfg.maxOps == 0 || int(next.Load()) < cfg.maxOps) {
		st, results, err := driveStretch(ctx, cfg, e, tr, &next, deadline)
		if err != nil {
			return win, err
		}
		after := cal.point()
		win.kernelMs = append(win.kernelMs, after)
		st.scale = scale(before, after, cfg.workload.hostShare)
		st.userScale = scale(before, after, 1)
		before = after
		for i := range results {
			results[i].scale = st.scale
		}
		win.stretches = append(win.stretches, st)
		win.results = append(win.results, results...)
	}
	return win, nil
}

// driveStretch runs the clients for one segment, or to the window's
// deadline if that comes first.
func driveStretch(ctx context.Context, cfg runConfig, e env, tr *tracer, next *atomic.Int64, deadline time.Time) (stretch, []opResult, error) {
	var st stretch
	perClient := make([][]opResult, cfg.workload.clients)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	userBefore, sysBefore, err := cpuTime()
	if err != nil {
		return st, nil, err
	}
	start := time.Now()
	if end := start.Add(segment); end.Before(deadline) {
		deadline = end
	}
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if cfg.maxOps > 0 && i >= cfg.maxOps {
					return
				}
				var t *tracer
				if traced(i) {
					t = tr
				}
				perClient[c] = append(perClient[c], runOp(ctx, e, i, t))
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	userAfter, sysAfter, err := cpuTime()
	if err != nil {
		return st, nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	st.user, st.system = userAfter-userBefore, sysAfter-sysBefore
	st.alloc = after.TotalAlloc - before.TotalAlloc
	var results []opResult
	for c := range perClient {
		results = append(results, perClient[c]...)
	}
	return st, results, nil
}

// checked is the outcome of comparing a window with the oracle.
type checked struct {
	ok       []bool // parallel to window.results
	failures []string
	retained []retainedProof // distinct correct proofs, at most maxVerified
}

// retainedProof is a proof kept for the independent verifier.
type retainedProof struct {
	problem camelot.Problem
	raw     []byte
}

// check recovers every op's count from its proof bytes and compares it
// with the oracle's; ops that returned an error fail outright. The first
// maxVerified distinct correct proofs are retained for the independent
// verifier. Ops that repeat a spec share the first verdict: their bytes
// were compared with the recorded ones in the op.
func check(win window) checked {
	out := checked{ok: make([]bool, len(win.results))}
	verdicts := make(map[string]error)
	for i, res := range win.results {
		err := res.err
		if err == nil {
			verdict, seen := verdicts[res.spec]
			if !seen {
				var problem camelot.Problem
				problem, verdict = checkProof(res)
				verdicts[res.spec] = verdict
				if verdict == nil && len(out.retained) < maxVerified {
					out.retained = append(out.retained, retainedProof{problem, res.proof})
				}
			}
			err = verdict
		}
		out.ok[i] = err == nil
		if err != nil && len(out.failures) < 10 {
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", res.spec, err))
		}
	}
	return out
}

func checkProof(res opResult) (camelot.Problem, error) {
	want, err := referenceCount(res.spec)
	if err != nil {
		return nil, err
	}
	wl, err := camelot.ParseWorkload(res.spec)
	if err != nil {
		return nil, err
	}
	proof := new(camelot.Proof)
	if err := proof.UnmarshalBinary(res.proof); err != nil {
		return nil, fmt.Errorf("unmarshal: %w", err)
	}
	got, err := wl.Problem.Count(proof)
	if err != nil {
		return nil, fmt.Errorf("count: %w", err)
	}
	if got.Cmp(want) != 0 {
		return nil, fmt.Errorf("count %v, oracle says %v", got, want)
	}
	return wl.Problem, nil
}

// verify is the independent verifier as a third party would run it:
// from the bytes and the problem alone, one trial.
func (p retainedProof) verify(seed int64) error {
	received := new(camelot.Proof)
	if err := received.UnmarshalBinary(p.raw); err != nil {
		return fmt.Errorf("unmarshal: %w", err)
	}
	ok, err := camelot.VerifyProof(p.problem, received, 1, seed)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !ok {
		return fmt.Errorf("independent verifier rejected the proof")
	}
	return nil
}

// timeVerifier times the independent verifier on the retained proofs, in
// reference-host milliseconds: pass after pass over all of them for the
// time given (one pass at least), a calibration point at least every fifth
// of a segment. It returns each proof's median time.
func timeVerifier(cal *calibrator, proofs []retainedProof, seed int64, budget time.Duration) ([]float64, error) {
	// Collect the window's garbage first: a collection cycle left over
	// from the window must not run beside the verifier.
	runtime.GC()
	samples := make([][]float64, len(proofs))
	type timing struct {
		proof int
		took  time.Duration
	}
	start := time.Now()
	before := cal.point()
	for done := false; !done; {
		var pending []timing
		for since := time.Now(); time.Since(since) < segment/5 && !done; {
			for i, p := range proofs {
				t := time.Now()
				if err := p.verify(seed); err != nil {
					return nil, err
				}
				pending = append(pending, timing{i, time.Since(t)})
			}
			done = time.Since(start) >= budget
		}
		after := cal.point()
		factor := scale(before, after, 1)
		before = after
		for _, t := range pending {
			samples[t.proof] = append(samples[t.proof], ms(t.took)*factor)
		}
	}
	medians := make([]float64, len(proofs))
	for i, s := range samples {
		medians[i] = median(s)
	}
	return medians, nil
}

// traceOverhead compares each traced block of ops with the untraced
// block that follows it — the same mix of specs, moments apart — and
// returns the median ratio of their summed latencies, 0 when the window
// holds no complete pair of blocks. Ratios of blocks, not of the two
// medians: where specs of several sizes rotate, a median sits in a gap
// between two sizes and jumps.
func traceOverhead(win window, ok []bool) float64 {
	type block struct {
		sum time.Duration
		ops int
	}
	blocks := make(map[int]*block)
	for i, res := range win.results {
		if !ok[i] {
			continue
		}
		b := blocks[res.index/traceBlock]
		if b == nil {
			b = new(block)
			blocks[res.index/traceBlock] = b
		}
		b.sum += res.latency
		b.ops++
	}
	var ratios []float64
	for n, tracedBlock := range blocks {
		untraced := blocks[n+1]
		if n%2 == 0 && untraced != nil && tracedBlock.ops == traceBlock && untraced.ops == traceBlock {
			ratios = append(ratios, float64(tracedBlock.sum)/float64(untraced.sum))
		}
	}
	return median(ratios)
}

// run executes one pass of one workload.
func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	w := cfg.workload
	cal := newCalibrator(runtime.GOMAXPROCS(0))
	// Set-up is timed cfg.setups times over, and again until cfg.settingUp
	// has passed, each time between two calibration points, and the median
	// reported; the last environment is the one the window runs on.
	var e env
	var setupS []float64
	began := time.Now()
	before := cal.point()
	for s := 0; s < cfg.setups || time.Since(began) < cfg.settingUp; s++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setUp(ctx, cfg); err != nil {
			return nil, err
		}
		took := time.Since(start).Seconds()
		after := cal.point()
		setupS = append(setupS, took*scale(before, after, w.setupShare))
		before = after
	}
	defer func() { e.close() }()

	// A traced run on a service workload reads the service's counters on
	// both sides of the window.
	var tr *tracer
	var served counters
	se, _ := e.(*serveEnv)
	if cfg.trace {
		tr = newTracer()
		if se != nil {
			var err error
			if served.before, err = se.scrape(ctx); err != nil {
				return nil, err
			}
		}
	}
	win, err := drive(ctx, cfg, e, tr, cal)
	if err != nil {
		return nil, err
	}
	if cfg.trace && se != nil {
		if served.after, err = se.scrape(ctx); err != nil {
			return nil, err
		}
	}
	res := &runResult{Workload: w.name, Trace: cfg.trace, Attempted: len(win.results), Metrics: map[string]metric{}}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: the window ran no op", w.name)
	}
	res.KernelMs = median(win.kernelMs)
	chk := check(win)
	res.Failures = chk.failures
	// Latencies as measured, and in reference-host time.
	var measured, latencies []float64
	for i, ok := range chk.ok {
		if !ok {
			res.Failed++
			continue
		}
		op := win.results[i]
		measured = append(measured, ms(op.latency))
		latencies = append(latencies, ms(op.latency)*op.scale)
	}
	res.Samples = len(latencies)
	if res.Samples == 0 {
		return res, nil
	}
	res.MeasuredP50Ms = median(measured)
	verifierCal := cal.single() // the verifier runs on one thread
	if cfg.trace {
		verifierCal = nil // per-layer times are reported as measured
	}
	verifyMs, err := timeVerifier(verifierCal, chk.retained, cfg.seed, cfg.verifying)
	if err != nil {
		// The oracle accepted these proofs: a verifier that rejects one is
		// a failure of the run, not of an op.
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.trace {
		return res, tracedPass(ctx, cfg, res, tr, win, chk, mean(verifyMs), served, measured)
	}
	proofs := float64(res.Samples)
	wall, cpu, alloc := win.totals()
	res.Metrics = map[string]metric{
		"setup_s":            {median(setupS), "s"},
		"proof_p50_ms":       {median(latencies), "ms"},
		"proof_p90_ms":       {percentile(latencies, 90), "ms"},
		"proofs_per_s":       {proofs / wall, "1/s"},
		"verify_mean_ms":     {mean(verifyMs), "ms"},
		"cpu_s_per_proof":    {cpu / proofs, "s"},
		"alloc_mb_per_proof": {float64(alloc) / (1 << 20) / proofs, "MB"},
	}
	return res, nil
}

// counters are the proof service's /metrics values on both sides of the
// window; both maps are nil on workloads that run no service.
type counters struct{ before, after map[string]float64 }

// delta is how much a counter grew over the window.
func (c counters) delta(name string) float64 { return c.after[name] - c.before[name] }

// tracedPass fills in what a traced run reports: the per-layer metrics,
// the spans and the budget.
func tracedPass(ctx context.Context, cfg runConfig, res *runResult, tr *tracer, win window, chk checked, verifyMs float64, served counters, latencies []float64) error {
	pr := &prober{cfg: cfg, tr: tr, win: win, verifyMs: verifyMs, served: served}
	if err := pr.all(ctx); err != nil {
		return fmt.Errorf("%s: probes: %w", cfg.workload.name, err)
	}
	res.Metrics = pr.metrics
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.Metrics["process.peak_rss_mb"] = metric{rss, "MB"}
	res.Metrics["trace.overhead_ratio"] = metric{traceOverhead(win, chk.ok), "ratio"}
	res.spans = tr.snapshot()
	rows, wall := budget(res.spans)
	res.Budget = make(map[string]float64, len(rows))
	for row, d := range rows {
		res.Budget[row] = float64(d) / float64(wall)
	}
	if served.after != nil {
		// Over HTTP the engine's stages run inside the two requests of an
		// op, mostly the long-poll for the result. The service's own stage
		// seconds over the window, as a share of all the window's op
		// latency, are taken out of the requests' share; what is left is
		// the service and HTTP themselves.
		totalSeconds := mean(latencies) * float64(len(latencies)) / 1000
		res.Budget["serve.http"] = res.Budget["http.submit"] + res.Budget["http.result"]
		delete(res.Budget, "http.submit")
		delete(res.Budget, "http.result")
		for _, st := range engineStages {
			share := served.delta(st.counter) / totalSeconds
			res.Budget[st.row] = share
			res.Budget["serve.http"] -= share
		}
	}
	res.Metrics["budget.other_share"] = metric{res.Budget["other"], "ratio"}
	return nil
}
