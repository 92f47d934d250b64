package main

// The five workloads. Each is a closed loop: a client issues its next op
// only after the previous one returned. An op starts from a spec string
// and ends with the marshalled proof in hand; the program under test
// sees nothing of the benchmark but those spec strings.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"camelot"
)

// warmupBase is the op index of the first warm-up op, far above any
// index a timed window reaches, so warm-ups never pre-compute a timed
// op's instance.
const warmupBase = 900_000

// instanceSeed derives the spec seed of op i from the run's seed.
func instanceSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

// opResult is what one op leaves behind for the checks after the window.
type opResult struct {
	index   int // the op's position in the run's sequence
	spec    string
	proof   []byte // marshalled proof
	latency time.Duration
	scale   float64         // converts the op's times to reference-host time
	report  *camelot.Report // nil when the op went over HTTP
	err     error
}

// env is a workload's running system under test.
type env interface {
	// op runs the i-th op; tr is nil for an untraced op.
	op(ctx context.Context, i int, tr *tracer) opResult
	close()
}

// workload describes one named load.
type workload struct {
	name    string
	why     string
	clients int
	// nodes, faults and adversary are the run geometry: the ops use them
	// and the per-layer probes are shaped by them.
	nodes, faults int
	adversary     func() camelot.Adversary
	// hostShare and setupShare are the parts of an op's and of a set-up's
	// time that slow down as the calibration kernel does when a neighbour
	// is busy on the host (see calib.go), measured on the reference host: 1
	// where the module's arithmetic does the work, about half where an op
	// is mostly system calls and socket round trips.
	hostShare, setupShare float64
	// specAt is the spec string of op i: a pure function of (seed, i).
	specAt func(seed int64, i int) string
	open   func(ctx context.Context, w *workload, seed int64) (env, error)
}

func (w *workload) runOptions() []camelot.RunOption {
	opts := []camelot.RunOption{camelot.WithFaultTolerance(w.faults)}
	if w.adversary != nil {
		opts = append(opts, camelot.WithAdversary(w.adversary()))
	}
	return opts
}

// smallSpecs are the four small specs the service workloads rotate over,
// one per problem family the default spec grammar offers besides cliques.
// They are sized to cost about the same (13 to 17 ms each, alone on the
// reference host): a mix of very different sizes has a latency
// distribution with gaps, and a median that sits in a gap jumps from run
// to run.
var smallSpecs = []string{
	"triangles n=36 p=0.3",
	"hamilton n=10 p=0.5",
	"permanent n=10",
	"cnfsat vars=10 clauses=20",
}

// hotPoolSize is how many distinct proofs serve_hot keeps asking for.
const hotPoolSize = 32

func seeded(spec string) func(int64, int) string {
	return func(seed int64, i int) string {
		return fmt.Sprintf("%s seed=%d", spec, instanceSeed(seed, i))
	}
}

// rotating gives op i the (i mod 4)-th small spec with a fresh seed.
func rotating(seed int64, i int) string {
	return seeded(smallSpecs[i%len(smallSpecs)])(seed, i)
}

// mix is splitmix64's finalizer: op i's pool slot must not depend on
// which client happens to run it, so it is a hash of (seed, i).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// pooled draws op i's spec from the seed's pool of hotPoolSize specs.
func pooled(seed int64, i int) string {
	slot := int(mix(uint64(seed)<<32^uint64(i)) % hotPoolSize)
	return rotating(seed, slot)
}

var workloads = []*workload{
	{
		name:    "eval_bound",
		why:     "triangle counting on 128 vertices: evaluating the proof polynomial is over 90% of each op, decoding under 5%",
		clients: 1, nodes: 4, hostShare: 1, setupShare: 1,
		specAt: seeded("triangles n=128 p=0.2"),
		open:   openCluster,
	},
	{
		name:    "decode_bound",
		why:     "permanent with a lying node and 200 tolerated errors over 3 primes: Gao decoding at the correction radius is over 85% of each op",
		clients: 1, nodes: 8, faults: 200, hostShare: 1, setupShare: 1,
		adversary: func() camelot.Adversary { return camelot.LyingNodes(7, 1) },
		specAt:    seeded("permanent n=12"),
		open:      openCluster,
	},
	{
		name:    "ctrl_workers",
		why:     "a coordinator, two worker daemons and an authenticated socket per op: the networked path that the bus workloads bypass",
		clients: 1, nodes: 4, hostShare: 0.55, setupShare: 0.55, // a set-up is three ops
		specAt: seeded("triangles n=48 p=0.2"),
		open:   openCtrl,
	},
	{
		name:    "serve_hot",
		why:     "HTTP submit and result for 32 cached proofs: admission, digest, cache and spot check do all the work, the engine none",
		clients: 2, nodes: 4, faults: 2, hostShare: 0.5, setupShare: 1, // a set-up prepares the pool
		specAt: pooled,
		open:   openServe,
	},
	{
		name:    "serve_cold",
		why:     "HTTP submit and long-poll result for never-seen small specs: every op misses the cache and pays parse, compile and pool admission",
		clients: 2, nodes: 4, faults: 2, hostShare: 1, setupShare: 1,
		specAt: rotating,
		open:   openServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- In-process cluster ---------------------------------------------------------

type clusterEnv struct {
	w    *workload
	seed int64
	cl   *camelot.Cluster
}

func openCluster(_ context.Context, w *workload, seed int64) (env, error) {
	return &clusterEnv{w: w, seed: seed, cl: camelot.NewCluster(camelot.WithNodes(w.nodes))}, nil
}

func (e *clusterEnv) close() { e.cl.Close() }

func (e *clusterEnv) op(ctx context.Context, i int, tr *tracer) opResult {
	return busOp(ctx, e.cl, e.w, e.w.specAt(e.seed, i), tr, i, "op")
}

// busOp parses a spec, runs it on the cluster and marshals the proof.
func busOp(ctx context.Context, cl *camelot.Cluster, w *workload, spec string, tr *tracer, op int, rootName string) opResult {
	res := opResult{spec: spec}
	start := time.Now()
	root := tr.begin(op, 0, rootName)
	parse := tr.begin(op, root, "spec.parse")
	wl, err := camelot.ParseWorkload(spec)
	tr.end(parse)
	if err == nil {
		res.proof, res.report, err = runAndMarshal(ctx, cl, w, wl.Problem, tr, op, root)
	}
	res.latency = time.Since(start)
	tr.end(root)
	res.err = err
	return res
}

// runAndMarshal submits the problem, waits for the proof and marshals
// it. The engine's three stage durations, read from the Report, become
// child spans of the run: what is left of the run is the cluster's own
// overhead.
func runAndMarshal(ctx context.Context, cl *camelot.Cluster, w *workload, p camelot.Problem, tr *tracer, op, parent int) ([]byte, *camelot.Report, error) {
	run := tr.begin(op, parent, "cluster.run")
	proof, rep, err := cl.Submit(ctx, p, w.runOptions()...).Wait(ctx)
	tr.end(run)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		verify := time.Duration(rep.VerifyTrials) * rep.VerifyPerTrial
		tr.add(run, "engine.compute", 0, rep.ComputeWall)
		tr.add(run, "engine.decode", rep.ComputeWall, rep.DecodeWall)
		tr.add(run, "engine.verify", rep.ComputeWall+rep.DecodeWall, verify)
	}
	marshal := tr.begin(op, parent, "encode.marshal")
	raw, err := proof.MarshalBinary()
	tr.end(marshal)
	if err != nil {
		return nil, nil, err
	}
	if err := checkReport(w, rep); err != nil {
		return nil, nil, err
	}
	return raw, rep, nil
}

// checkReport asserts what the run must have found out about its nodes:
// verification passed, and exactly the adversary's nodes are suspects.
func checkReport(w *workload, rep *camelot.Report) error {
	if !rep.Verified {
		return fmt.Errorf("report: proof not verified")
	}
	var want []int
	if w.adversary != nil {
		want = w.adversary().CorruptNodes()
	}
	if !slices.Equal(rep.SuspectNodes, want) {
		return fmt.Errorf("report: suspect nodes %v, want %v", rep.SuspectNodes, want)
	}
	return nil
}

// --- Coordinator and worker daemons ----------------------------------------------

var ctrlSecret = []byte("camelot-benchmark")

// ctrlWorkers is how many worker daemons serve each coordinator.
const ctrlWorkers = 2

type ctrlEnv struct {
	w    *workload
	seed int64
}

func openCtrl(_ context.Context, w *workload, seed int64) (env, error) {
	return &ctrlEnv{w: w, seed: seed}, nil
}

func (e *ctrlEnv) close() {}

func (e *ctrlEnv) op(ctx context.Context, i int, tr *tracer) opResult {
	return ctrlOp(ctx, e.w, e.w.specAt(e.seed, i), tr, i, "op")
}

// ctrlOp runs one spec the multi-process way: a coordinator on an
// ephemeral loopback port, worker daemons that join it over HMAC-
// authenticated connections, and a cluster whose transport is the
// coordinator. The op ends when the proof bytes are in hand; tearing the
// workers down afterwards is timed as a span of its own.
func ctrlOp(ctx context.Context, w *workload, spec string, tr *tracer, op int, rootName string) opResult {
	res := opResult{spec: spec}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	root := tr.begin(op, 0, rootName)
	setup := tr.begin(op, root, "ctrl.setup")
	co, err := camelot.NewCoordinator(w.nodes, camelot.CoordinatorConfig{
		Workload:   spec,
		ListenAddr: "127.0.0.1:0",
		Secret:     ctrlSecret,
		MinWorkers: ctrlWorkers,
	})
	if err != nil {
		tr.end(setup)
		tr.end(root)
		res.err = err
		return res
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, ctrlWorkers)
	for i := range workerErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = camelot.ServeNode(ctx, camelot.NodeConfig{Join: co.Addr(), Secret: ctrlSecret})
		}()
	}
	cl := camelot.NewCluster(camelot.WithNodes(w.nodes), co.AsTransport())
	tr.end(setup)
	res.proof, res.report, res.err = runAndMarshal(ctx, cl, w, co.Workload().Problem, tr, op, root)
	res.latency = time.Since(start)
	tr.end(root)

	teardown := tr.begin(op, 0, "ctrl.teardown")
	cl.Close()
	co.Close()
	if res.err != nil {
		cancel() // a failed run may never tell the workers they are done
	}
	wg.Wait()
	tr.end(teardown)
	for _, werr := range workerErrs {
		if werr != nil && res.err == nil {
			res.err = fmt.Errorf("worker: %w", werr)
		}
	}
	return res
}

// --- Proof service over HTTP ------------------------------------------------------

type serveEnv struct {
	w      *workload
	seed   int64
	cl     *camelot.Cluster
	srv    *camelot.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	base   string
	client *http.Client
	// pool maps a serve_hot spec to the proof bytes recorded when the
	// pool was pre-warmed; nil on serve_cold.
	pool map[string][]byte
}

// startServer starts a proof service for the workload's geometry on an
// ephemeral loopback port.
func startServer(w *workload, seed int64) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl := camelot.NewCluster(camelot.WithNodes(w.nodes))
	srv := camelot.NewServer(cl, camelot.ServerConfig{FaultTolerance: w.faults})
	e := &serveEnv{
		w: w, seed: seed, cl: cl, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}},
	}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln) // returns ErrServerClosed once close() shuts it down
	}()
	return e, nil
}

func openServe(ctx context.Context, w *workload, seed int64) (env, error) {
	e, err := startServer(w, seed)
	if err != nil {
		return nil, err
	}
	if w.name != "serve_hot" {
		return e, nil
	}
	// Pre-warm: prepare every proof of the pool once and record its
	// bytes; a timed op must be served exactly those bytes again.
	pool := make(map[string][]byte, hotPoolSize)
	for slot := 0; slot < hotPoolSize; slot++ {
		spec := rotating(seed, slot)
		raw, err := e.fetch(ctx, spec, "running", nil, 0, 0)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("pre-warm %q: %w", spec, err)
		}
		pool[spec] = raw
	}
	e.pool = pool
	return e, nil
}

func (e *serveEnv) close() {
	e.hs.Close()
	<-e.served
	e.client.CloseIdleConnections()
	e.srv.Close()
	e.cl.Close()
}

func (e *serveEnv) op(ctx context.Context, i int, tr *tracer) opResult {
	res := opResult{spec: e.w.specAt(e.seed, i)}
	wantState := "running"
	if e.pool != nil {
		wantState = "cached"
	}
	start := time.Now()
	root := tr.begin(i, 0, "op")
	raw, err := e.fetch(ctx, res.spec, wantState, tr, i, root)
	res.latency = time.Since(start)
	tr.end(root)
	if err == nil && e.pool != nil {
		if !bytes.Equal(raw, e.pool[res.spec]) {
			err = fmt.Errorf("served bytes differ from the bytes recorded at pre-warm")
		}
		raw = e.pool[res.spec] // keep one copy per pool slot, not one per op
	}
	res.proof, res.err = raw, err
	return res
}

// fetch is one service round trip: POST /v1/submit, then GET /v1/result
// until the proof bytes arrive. The submit must report wantState, which
// is how a workload proves its ops hit (or miss) the proof cache.
func (e *serveEnv) fetch(ctx context.Context, spec, wantState string, tr *tracer, op, parent int) ([]byte, error) {
	body, err := json.Marshal(map[string]string{"tenant": "bench", "spec": spec})
	if err != nil {
		return nil, err
	}
	submit := tr.begin(op, parent, "http.submit")
	code, reply, err := e.roundTrip(ctx, http.MethodPost, "/v1/submit", body)
	tr.end(submit)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d: %s", code, strings.TrimSpace(string(reply)))
	}
	var out struct{ Digest, State string }
	if err := json.Unmarshal(reply, &out); err != nil {
		return nil, fmt.Errorf("submit reply: %w", err)
	}
	if out.State != wantState {
		return nil, fmt.Errorf("submit: state %q, want %q", out.State, wantState)
	}
	result := tr.begin(op, parent, "http.result")
	code, raw, err := e.roundTrip(ctx, http.MethodGet, "/v1/result?digest="+url.QueryEscape(out.Digest), nil)
	tr.end(result)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result: HTTP %d: %s", code, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

func (e *serveEnv) roundTrip(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads the service's /metrics counters.
func (e *serveEnv) scrape(ctx context.Context) (map[string]float64, error) {
	code, data, err := e.roundTrip(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		var name string
		var value float64
		if n, _ := fmt.Sscanf(line, "%s %g", &name, &value); n == 2 {
			out[name] = value
		}
	}
	return out, nil
}
