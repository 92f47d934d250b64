package main

// The per-layer numbers of the traced pass. Budget metrics are medians
// over what the traced ops recorded (spans and Reports). Probe metrics
// are direct timed calls into one layer, on the geometry of the
// workload's own instances — their primes, code length, degree, width
// and node count — so a layer's number is the cost that layer has on
// this workload.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"camelot"
	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/par"
	"camelot/internal/plan"
	"camelot/internal/poly"
	"camelot/internal/rs"
)

// hitOps is how many cache-hit calls time each serve probe.
const hitOps = 200

type prober struct {
	cfg      runConfig
	tr       *tracer
	win      window
	verifyMs float64  // verify_mean_ms of this run
	served   counters // the service's /metrics around the window
	metrics  map[string]metric

	// The reference instance: op 0's spec, run on a bus cluster.
	spec       string
	reports    []*camelot.Report
	busLatency []time.Duration // per reference spec
	proof      *camelot.Proof
	raw        []byte
}

// nanos is a duration in nanoseconds that keeps its fraction.
type nanos float64

func (n nanos) ms() float64 { return float64(n) / 1e6 }
func (n nanos) us() float64 { return float64(n) / 1e3 }

func (p *prober) set(name string, value float64, unit string) {
	p.metrics[name] = metric{value, unit}
}

// timed runs fn reps times, each inside a probe span, and returns the
// median duration of one call; fn itself makes `calls` calls. The result
// is a float: a vector kernel's time per element is below a nanosecond.
func (p *prober) timed(name string, calls int, fn func() error) (nanos, error) {
	samples := make([]float64, 0, p.cfg.reps)
	for r := 0; r < p.cfg.reps; r++ {
		id := p.tr.begin(-1, 0, name)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		p.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		samples = append(samples, float64(d)/float64(calls))
	}
	return nanos(median(samples)), nil
}

func (p *prober) all(ctx context.Context) error {
	p.metrics = make(map[string]metric)
	w := p.cfg.workload
	p.spec = w.specAt(p.cfg.seed, 0)
	if err := p.reference(ctx); err != nil {
		return err
	}
	for _, step := range []func(context.Context) error{
		p.engine, p.budgetSpans, p.ctrl, p.planLayer, p.codeLayers, p.transport, p.verifyEncode, p.serve,
	} {
		if err := step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// reference runs the first specs of the op sequence on a fresh bus
// cluster: the baseline the networked path is compared with, the source
// of Reports on workloads whose ops go over HTTP, and the proof whose
// geometry shapes the probes.
func (p *prober) reference(ctx context.Context) error {
	w := p.cfg.workload
	cl := camelot.NewCluster(camelot.WithNodes(w.nodes))
	defer cl.Close()
	for r := 0; r < p.cfg.reps; r++ {
		res := busOp(ctx, cl, w, w.specAt(p.cfg.seed, r), p.tr, -1, "bus.op")
		if res.err != nil {
			return fmt.Errorf("reference run: %w", res.err)
		}
		p.reports = append(p.reports, res.report)
		p.busLatency = append(p.busLatency, res.latency)
		if r == 0 {
			p.raw = res.proof
			p.proof = new(camelot.Proof)
			if err := p.proof.UnmarshalBinary(res.proof); err != nil {
				return err
			}
		}
	}
	return nil
}

// engine reports the stage times of the Reports this pass has seen: the
// traced ops' own, or the reference runs' when ops go over HTTP. There
// the three stage times are the service's own account instead — its
// /metrics stage seconds per run, over every run since it started.
func (p *prober) engine(context.Context) error {
	var reports []*camelot.Report
	for _, res := range p.win.results {
		if traced(res.index) && res.report != nil {
			reports = append(reports, res.report)
		}
	}
	if len(reports) == 0 {
		reports = p.reports
	}
	pick := func(f func(*camelot.Report) float64) float64 {
		xs := make([]float64, len(reports))
		for i, rep := range reports {
			xs[i] = f(rep)
		}
		return median(xs)
	}
	p.set("engine.compute_ms", pick(func(r *camelot.Report) float64 { return ms(r.ComputeWall) }), "ms")
	p.set("engine.decode_ms", pick(func(r *camelot.Report) float64 { return ms(r.DecodeWall) }), "ms")
	p.set("engine.verify_ms", pick(func(r *camelot.Report) float64 {
		return ms(time.Duration(r.VerifyTrials) * r.VerifyPerTrial)
	}), "ms")
	nodeMax := pick(func(r *camelot.Report) float64 { return ms(r.MaxNodeCompute) })
	p.set("engine.node_max_ms", nodeMax, "ms")
	p.set("engine.node_total_ms", pick(func(r *camelot.Report) float64 { return ms(r.TotalNodeCompute) }), "ms")
	p.set("engine.balance", pick(func(r *camelot.Report) float64 {
		return float64(r.TotalNodeCompute) / (float64(r.Nodes) * float64(r.MaxNodeCompute))
	}), "ratio")
	p.set("verify.over_node", p.verifyMs/nodeMax, "ratio")
	if runs := p.served.after["camelot_runs_total"]; runs > 0 {
		for _, st := range engineStages {
			p.set(st.row+"_ms", 1000*p.served.after[st.counter]/runs, "ms")
		}
	}
	return nil
}

// engineStages pairs each engine stage's budget row with the service's
// /metrics counter of the seconds spent in it.
var engineStages = []struct{ row, counter string }{
	{"engine.compute", `camelot_stage_seconds{stage="prepare"}`},
	{"engine.decode", `camelot_stage_seconds{stage="decode"}`},
	{"engine.verify", `camelot_stage_seconds{stage="verify"}`},
}

// ctrl runs the reference specs through a coordinator and worker
// daemons and compares each with its run on the bus: the ratio is the
// median over specs of networked latency to bus latency, the overhead
// what a networked op spends outside the engine's three stages.
func (p *prober) ctrl(ctx context.Context) error {
	w := p.cfg.workload
	var ratios, overheads []float64
	for r, bus := range p.busLatency {
		res := ctrlOp(ctx, w, w.specAt(p.cfg.seed, r), p.tr, -1, "ctrl.op")
		if res.err != nil {
			return fmt.Errorf("ctrl probe: %w", res.err)
		}
		rep := res.report
		stages := rep.ComputeWall + rep.DecodeWall + time.Duration(rep.VerifyTrials)*rep.VerifyPerTrial
		ratios = append(ratios, float64(res.latency)/float64(bus))
		overheads = append(overheads, ms(res.latency-stages))
	}
	p.set("ctrl.vs_bus_ratio", median(ratios), "ratio")
	p.set("ctrl.run_overhead_ms", median(overheads), "ms")
	return nil
}

// budgetSpans reports the medians of the budget spans: those of the
// window's traced ops where they recorded the span, else those of the
// reference runs (an HTTP op never marshals a proof itself).
func (p *prober) budgetSpans(context.Context) error {
	spans := p.tr.snapshot()
	inWindow := func(name string) []span {
		var window, rest []span
		for _, s := range spans {
			if s.Name != name {
				continue
			}
			if s.Op >= 0 {
				window = append(window, s)
			} else {
				rest = append(rest, s)
			}
		}
		if len(window) > 0 {
			return window
		}
		return rest
	}
	durations := func(ss []span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = ms(s.duration())
		}
		return out
	}
	p.set("encode.marshal_ms", median(durations(inWindow("encode.marshal"))), "ms")
	self := selfTimes(spans)
	var submit []float64
	for _, s := range inWindow("cluster.run") {
		submit = append(submit, ms(self[s.ID]))
	}
	p.set("cluster.submit_overhead_ms", median(submit), "ms")
	return nil
}

// planLayer times compiling the reference problem for each prime and
// evaluating a block of consecutive points with the compiled plan.
func (p *prober) planLayer(context.Context) error {
	primes := p.proof.Primes
	e := len(p.proof.Points)
	p.set("plan.points_per_proof", float64(e*len(primes)), "count")
	var pl plan.Plan
	compile, err := p.timed("plan.compile", len(primes), func() error {
		// A fresh parse per repetition: a compile must not find state a
		// previous one left on the problem.
		wl, err := camelot.ParseWorkload(p.spec)
		if err != nil {
			return err
		}
		compiler, ok := wl.Problem.(plan.Compiler)
		if !ok {
			return fmt.Errorf("%s does not compile to a plan", wl.Kind)
		}
		for _, q := range primes {
			if pl, err = compiler.Compile(ff.Must(q)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("plan.compile_ms", compile.ms(), "ms")
	xs := p.proof.Points[:min(256, e)]
	eval, err := p.timed("plan.evaluate_block", len(xs), func() error {
		_, err := pl.EvaluateBlock(xs)
		return err
	})
	if err != nil {
		return err
	}
	p.set("plan.eval_us_per_point", eval.us(), "us")
	return nil
}

// codeLayers times rs, poly, ff and par on the reference geometry: the
// first prime, code length e, degree bound d.
func (p *prober) codeLayers(context.Context) error {
	w := p.cfg.workload
	q := p.proof.Primes[0]
	e, d := len(p.proof.Points), p.proof.Degree
	field := ff.Must(q)
	ring := poly.NewRing(field)
	points := rs.ConsecutivePoints(e)
	rng := rand.New(rand.NewSource(p.cfg.seed))
	randomVec := func(n int) []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = rng.Uint64() % q
		}
		return v
	}

	var code *rs.Code
	build, err := p.timed("rs.code_build", 1, func() (err error) {
		code, err = rs.New(poly.NewRing(field), points, d)
		return err
	})
	if err != nil {
		return err
	}
	p.set("rs.code_build_ms", build.ms(), "ms")

	message := randomVec(d + 1)
	var word []uint64
	encode, err := p.timed("rs.encode", 1, func() (err error) {
		word, err = code.Encode(message)
		return err
	})
	if err != nil {
		return err
	}
	p.set("rs.encode_ms", encode.ms(), "ms")

	decode := func(name string, received []uint64, erased []int) (nanos, error) {
		return p.timed(name, 1, func() error {
			got, _, _, err := code.DecodeErasures(received, erased)
			if err == nil && !poly.Equal(poly.Trim(got), poly.Trim(message)) {
				err = fmt.Errorf("decoded a different message")
			}
			return err
		})
	}
	clean, err := decode("rs.decode_clean", word, nil)
	if err != nil {
		return err
	}
	p.set("rs.decode_clean_ms", clean.ms(), "ms")

	// Errors at the correction radius, in one contiguous block as a lying
	// node leaves them.
	garbled := append([]uint64(nil), word...)
	for i := 0; i < code.CorrectionRadius(); i++ {
		garbled[i] = (garbled[i] + 1 + rng.Uint64()%(q-1)) % q
	}
	withErrors, err := decode("rs.decode_errors", garbled, nil)
	if err != nil {
		return err
	}
	p.set("rs.decode_errors_ms", withErrors.ms(), "ms")

	erased := make([]int, e-d-1) // the whole budget spent on erasures
	for i := range erased {
		erased[i] = i
	}
	withErasures, err := decode("rs.decode_erasures", word, erased)
	if err != nil {
		return err
	}
	p.set("rs.decode_erasures_ms", withErasures.ms(), "ms")

	decoders := w.nodes
	if w.adversary != nil {
		decoders -= len(w.adversary().CorruptNodes())
	}
	p.set("rs.decodes_per_proof", float64(decoders*len(p.proof.Primes)*p.proof.Width), "count")

	restore := par.SetParallelism(1)
	serial, err := decode("rs.decode_errors_serial", garbled, nil)
	restore()
	if err != nil {
		return err
	}
	p.set("par.decode_speedup", float64(serial)/float64(withErrors), "ratio")

	a, b := randomVec(d+1), randomVec(d+1)
	mul, _ := p.timed("poly.ntt_mul", 1, func() error { ring.Mul(a, b); return nil })
	p.set("poly.ntt_mul_ms", mul.ms(), "ms")
	evalMany, _ := p.timed("poly.evalmany", 1, func() error { ring.EvalMany(message, points); return nil })
	p.set("poly.evalmany_ms", evalMany.ms(), "ms")
	interpolate, _ := p.timed("poly.interpolate", 1, func() error { ring.Interpolate(points, word); return nil })
	p.set("poly.interpolate_ms", interpolate.ms(), "ms")

	const vecLen, vecCalls = 4096, 512
	x, y, dst := randomVec(vecLen), randomVec(vecLen), make([]uint64, vecLen)
	kernel := field.Kernel()
	mulVec, _ := p.timed("ff.mulvec", vecCalls*vecLen, func() error {
		for i := 0; i < vecCalls; i++ {
			ff.MulVecK(dst, x, y, kernel)
		}
		return nil
	})
	p.set("ff.mulvec_ns_per_elem", float64(mulVec), "ns")
	lagrange, _ := p.timed("ff.lagrange_at", 1, func() error {
		field.LagrangeAtZeroBased(d+1, uint64(e)+rng.Uint64()%(q-uint64(e)))
		return nil
	})
	p.set("ff.lagrange_at_us", lagrange.us(), "us")
	return nil
}

// transport times one gather round — every node sends its shares, the
// collector gathers them — over the bus and over loopback TCP, and the
// share codec on one node's message.
func (p *prober) transport(ctx context.Context) error {
	k := p.cfg.workload.nodes
	e := len(p.proof.Points)
	assign := core.NewPointAssignment(e, k)
	shares := make([]core.NodeShares, k)
	for id := range shares {
		lo, hi := assign.Range(id)
		vals := make([][][]uint64, len(p.proof.Primes))
		for pi, q := range p.proof.Primes {
			vals[pi] = make([][]uint64, p.proof.Width)
			for c := range vals[pi] {
				vals[pi][c] = p.proof.Evals[q][c][lo:hi]
			}
		}
		shares[id] = core.NodeShares{ID: id, From: id, Lo: lo, Hi: hi, Vals: vals}
	}
	round := func(tr core.Transport) error {
		var wg sync.WaitGroup
		errs := make([]error, k)
		for id := range shares {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[id] = tr.Send(ctx, shares[id])
			}()
		}
		got, err := tr.Gather(ctx, k)
		wg.Wait()
		for _, serr := range errs {
			if err == nil {
				err = serr
			}
		}
		if err == nil && len(got) != k {
			err = fmt.Errorf("gathered %d messages, want %d", len(got), k)
		}
		return err
	}
	bus, err := p.timed("transport.bus_round", 1, func() error { return round(core.NewBroadcastBus(k)) })
	if err != nil {
		return err
	}
	p.set("transport.bus_round_us", bus.us(), "us")
	tcp, err := p.timed("transport.tcp_round", 1, func() error {
		tr, err := core.NewTCPTransport(k, core.TCPConfig{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			return err
		}
		defer tr.Close()
		return round(tr)
	})
	if err != nil {
		return err
	}
	p.set("transport.tcp_round_ms", tcp.ms(), "ms")

	var frame []byte
	encode, err := p.timed("transport.codec_encode", 1, func() (err error) {
		frame, err = core.EncodeNodeShares(shares[0])
		return err
	})
	if err != nil {
		return err
	}
	p.set("transport.codec_encode_us", encode.us(), "us")
	decode, err := p.timed("transport.codec_decode", 1, func() error {
		_, err := core.DecodeNodeShares(frame)
		return err
	})
	if err != nil {
		return err
	}
	p.set("transport.codec_decode_us", decode.us(), "us")
	p.set("transport.frame_bytes", float64(len(frame)), "bytes")
	return nil
}

// verifyEncode times the spec parser, the verifier and the proof codec
// on the reference spec and its proof.
func (p *prober) verifyEncode(context.Context) error {
	var wl *camelot.Workload
	parse, err := p.timed("spec.parse_digest", 1, func() (err error) {
		if wl, err = camelot.ParseWorkload(p.spec); err == nil {
			wl.Digest(p.cfg.workload.faults)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.set("spec.parse_ms", parse.ms(), "ms")
	accept := func(ok bool, err error) error {
		if err == nil && !ok {
			err = fmt.Errorf("verifier rejected the reference proof")
		}
		return err
	}
	point, err := p.timed("verify.point", 1, func() error {
		return accept(camelot.VerifyProof(wl.Problem, p.proof, 1, p.cfg.seed))
	})
	if err != nil {
		return err
	}
	p.set("verify.point_ms", point.ms(), "ms")
	batch, err := p.timed("verify.batch", 1, func() error {
		return accept(camelot.VerifyProofBatch(p.proof, p.cfg.seed))
	})
	if err != nil {
		return err
	}
	p.set("verify.batch_ms", batch.ms(), "ms")

	unmarshal, err := p.timed("encode.unmarshal", 1, func() error {
		return new(camelot.Proof).UnmarshalBinary(p.raw)
	})
	if err != nil {
		return err
	}
	p.set("encode.unmarshal_ms", unmarshal.ms(), "ms")
	p.set("encode.proof_bytes", float64(len(p.raw)), "bytes")
	return nil
}

// serve times the proof service's cache-hit path on the reference spec:
// Submit and Result called in process on a cached digest, and the same
// pair as an HTTP op; the difference is what HTTP adds. The cache
// counters come from the /metrics deltas of the window.
func (p *prober) serve(ctx context.Context) error {
	e, err := startServer(p.cfg.workload, p.cfg.seed)
	if err != nil {
		return err
	}
	defer e.close()
	if _, err := e.fetch(ctx, p.spec, "running", nil, 0, 0); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	var digest string
	submit, err := p.timed("serve.submit_hit", hitOps, func() error {
		for i := 0; i < hitOps; i++ {
			out, err := e.srv.Submit("bench", p.spec)
			if err != nil {
				return err
			}
			digest = out.Digest
		}
		return nil
	})
	if err != nil {
		return err
	}
	result, err := p.timed("serve.result_hit", hitOps, func() error {
		for i := 0; i < hitOps; i++ {
			if _, err := e.srv.Result(ctx, digest); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	overHTTP, err := p.timed("serve.http_hit", hitOps, func() error {
		for i := 0; i < hitOps; i++ {
			if _, err := e.fetch(ctx, p.spec, "cached", nil, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("serve.submit_hit_us", submit.us(), "us")
	p.set("serve.result_hit_us", result.us(), "us")
	p.set("serve.http_overhead_us", (overHTTP - submit - result).us(), "us")

	ratio := func(hits, total float64) float64 {
		if total == 0 {
			return 0
		}
		return hits / total
	}
	grew := p.served.delta
	p.set("serve.cache_hit_ratio",
		ratio(grew("camelot_cache_hits_total")+grew("camelot_cache_coalesced_total"), grew("camelot_submits_total")), "ratio")
	p.set("serve.plan_cache_hit_ratio",
		ratio(grew("camelot_plan_cache_hits"), grew("camelot_plan_cache_hits")+grew("camelot_plan_cache_misses")), "ratio")
	p.set("serve.refused", grew("camelot_refused_tenant_quota_total")+grew("camelot_refused_queue_full_total"), "count")
	return nil
}
