package camelot

// The proof service: an HTTP front end over the session layer that
// makes the paper's "community standing by to prepare proofs for a
// stream of inputs" operable as a shared, multi-tenant service. Three
// properties of the protocol make the design sound:
//
//   - Proofs are deterministic in (canonical spec, fault tolerance):
//     every honest run of the same workload decodes bit-identical
//     coefficient vectors. A content-addressed cache keyed by
//     Workload.Digest therefore never conflates distinct computations
//     and never needs invalidation.
//   - Proofs are independently verifiable: a cached artifact does not
//     ask the client to trust the server's history. An entry keeps only
//     the bytes it serves, and every serve spot-checks exactly those with
//     a fresh VerifyProofBatch; the audit-grade VerifyProof path remains
//     open to any client holding the input.
//   - The shared pool's weighted round-robin (core.Pool.RunWeighted)
//     lets tenant priorities shape execution shares without starvation,
//     so one service instance can serve tenants of different sizes.
//
// A hit costs its lookup and its spot check: Submit digests the resolved
// spec line and builds the instance only on a miss. Errors come in one
// order: a malformed spec, an instance that cannot be built, then the
// admission refusals on two axes, a global in-flight preparation cap and
// per-tenant caps — typed (ErrTenantQuota, ErrQueueFull) and mapped to
// 429 + Retry-After on the wire, so overload turns into backpressure
// instead of queue collapse.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"camelot/internal/core"
)

// Typed admission refusals; HTTP handlers map both to 429 with a
// Retry-After header. Match with errors.Is.
var (
	// ErrTenantQuota is returned when the submitting tenant already has
	// its maximum number of distinct proofs in preparation.
	ErrTenantQuota = errors.New("camelot: tenant in-flight quota exhausted")
	// ErrQueueFull is returned when the server as a whole is at its
	// in-flight preparation bound.
	ErrQueueFull = errors.New("camelot: server admission queue full")
)

// ErrUnknownProof is returned by status/result/verify lookups for a
// digest the server has never admitted.
var ErrUnknownProof = errors.New("camelot: no submission with that digest")

// errSpotCheck refuses cached bytes that fail Result's spot-check.
var errSpotCheck = fmt.Errorf("camelot: cached proof failed its spot-check: %w", ErrMalformedProof)

// TenantConfig is one tenant's service contract.
type TenantConfig struct {
	// MaxInFlight caps how many distinct proofs the tenant may have in
	// preparation at once (0 = the server's DefaultMaxInFlight).
	// Attaching to an already-running identical preparation or hitting
	// the cache never counts against the cap — only new work does.
	MaxInFlight int
	// Priority is the pool scheduling weight of the tenant's runs (see
	// WithPriority; values below 1 mean 1).
	Priority int
}

// ServerConfig fixes the service-wide run geometry and admission
// bounds. The geometry lives here, not in requests, because the proof
// cache is keyed by (canonical spec, FaultTolerance): one service
// instance prepares proofs of one shape, so every tenant's identical
// submission is a hit for the others.
type ServerConfig struct {
	// FaultTolerance is the f every prepared proof survives (e = d+1+2f).
	// It keys the cache digest, so it overrides a WithFaultTolerance in
	// Run.
	FaultTolerance int
	// Run are the run options of every preparation — erasure and repair
	// budgets, verification trials and seed (which also seeds the
	// cached-serve spot checks, each mixing in a distinct counter), an
	// adversary for experiments. The tenant's priority overrides a
	// WithPriority here.
	Run []RunOption
	// MaxQueueDepth bounds proofs in preparation across all tenants
	// (default 16).
	MaxQueueDepth int
	// DefaultMaxInFlight is the per-tenant cap for tenants without an
	// explicit TenantConfig (default 4).
	DefaultMaxInFlight int
	// RetryAfter is the backoff hint attached to 429 refusals
	// (default 1s).
	RetryAfter time.Duration
	// Tenants maps tenant names to explicit contracts; absent tenants
	// get DefaultMaxInFlight and priority 1.
	Tenants map[string]TenantConfig
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 16
	}
	if c.DefaultMaxInFlight <= 0 {
		c.DefaultMaxInFlight = 4
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

func (c *ServerConfig) tenant(name string) TenantConfig {
	tc := c.Tenants[name]
	if tc.MaxInFlight <= 0 {
		tc.MaxInFlight = c.DefaultMaxInFlight
	}
	if tc.Priority < 1 {
		tc.Priority = 1
	}
	return tc
}

// serveEntry is one digest's lifecycle: admitted exactly once, watched
// to completion, then held as the cached artifact. done is closed after
// the terminal fields (bytes, err) are written.
type serveEntry struct {
	digest string
	tenant string // admitting tenant (owns the quota slot)
	job    *Job
	done   chan struct{}

	bytes []byte // marshalled proof: the one copy served and spot-checked
	err   error
}

// SubmitOutcome reports how a submission was admitted.
type SubmitOutcome struct {
	// Digest is the content address of the requested proof.
	Digest string
	// Canonical is the normalized spec line the digest covers.
	Canonical string
	// State is "running" (new preparation started), "coalesced"
	// (attached to an identical in-flight preparation), "cached"
	// (finished artifact available), or "failed" (previous preparation
	// failed; resubmitting retries).
	State string
}

// Server is the proof service: a content-addressed proof cache with
// single-flight preparation, per-tenant quotas and priorities, and
// bounded admission over a Cluster. Construct with NewServer; the
// caller owns the Cluster. Safe for concurrent use.
type Server struct {
	cluster *Cluster
	cfg     ServerConfig
	// run is the record every preparation starts from: the cluster's,
	// with cfg.Run and then cfg.FaultTolerance applied.
	run core.Options

	ctx    context.Context // governs all runs; cancelled by Close
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	entries  map[string]*serveEntry
	inflight map[string]int // per-tenant preparations in flight
	depth    int            // total preparations in flight
	// Stage-latency accumulators from finished runs' Reports.
	prepareNs, decodeNs, verifyNs int64

	// Counters (atomics: the metrics endpoint reads them without mu).
	submits, cacheHits, coalesced atomic.Int64
	refusedQuota, refusedQueue    atomic.Int64
	runs, runFailures             atomic.Int64
	deliveryFaults, repairRounds  atomic.Int64
	spotChecks, spotCheckFailures atomic.Int64
	spotSeed                      atomic.Int64
}

// NewServer returns a running proof service over cl. Closing the
// server waits for in-flight preparations; the cluster itself remains
// the caller's to close.
func NewServer(cl *Cluster, cfg ServerConfig) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	run := resolve(cl.base, cfg.Run)
	run.FaultTolerance = cfg.FaultTolerance
	return &Server{
		cluster:  cl,
		cfg:      cfg.withDefaults(),
		run:      run,
		ctx:      ctx,
		cancel:   cancel,
		entries:  make(map[string]*serveEntry),
		inflight: make(map[string]int),
	}
}

// Close aborts in-flight preparations and waits for their watchers to
// drain. Cached artifacts remain readable; new submissions still work
// but their runs fail immediately under the cancelled context, so Close
// is for shutdown, not pause.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// Submit admits a workload for proof preparation under the given
// tenant. It never blocks on other work: the outcome says whether the
// proof is already cached, being prepared, or newly started, and
// Result/Status follow up by digest. Only a miss builds the instance,
// outside s.mu, and looks the digest up again before admitting it, so
// an identical submission admitted meanwhile coalesces. A spec error is
// ParseWorkload's; a build refusal leaves no entry and counts nowhere;
// then come ErrTenantQuota and ErrQueueFull.
func (s *Server) Submit(tenant, spec string) (SubmitOutcome, error) {
	w, err := resolveWorkload(spec)
	if err != nil {
		return SubmitOutcome{}, err
	}
	out := SubmitOutcome{Digest: w.Digest(s.cfg.FaultTolerance), Canonical: w.Canonical}
	s.mu.Lock()
	if out.State = s.entries[out.Digest].state(); out.State == "" {
		s.mu.Unlock()
		if err := w.build(); err != nil {
			return SubmitOutcome{}, err
		}
		s.mu.Lock()
		if out.State = s.entries[out.Digest].state(); out.State == "" {
			out.State, err = s.admitLocked(tenant, w, out.Digest)
		}
	}
	s.mu.Unlock()
	s.submits.Add(1)
	switch out.State {
	case "cached":
		s.cacheHits.Add(1)
	case "coalesced":
		s.coalesced.Add(1)
	}
	return out, err
}

// state is how a submission attaches to e: "cached", "coalesced" while
// it runs, or "" when absent or failed (no negative cache: it retries).
func (e *serveEntry) state() string {
	if e == nil {
		return ""
	}
	select {
	case <-e.done:
		if e.err != nil {
			return ""
		}
		return "cached"
	default:
		return "coalesced"
	}
}

// admitLocked starts w's preparation within quota and queue; s.mu is held.
func (s *Server) admitLocked(tenant string, w *Workload, digest string) (string, error) {
	tc := s.cfg.tenant(tenant)
	if s.inflight[tenant] >= tc.MaxInFlight {
		s.refusedQuota.Add(1)
		return "", fmt.Errorf("%w: tenant %q has %d preparations in flight", ErrTenantQuota, tenant, tc.MaxInFlight)
	}
	if s.depth >= s.cfg.MaxQueueDepth {
		s.refusedQueue.Add(1)
		return "", fmt.Errorf("%w: %d preparations in flight", ErrQueueFull, s.depth)
	}
	e := &serveEntry{digest: digest, tenant: tenant, done: make(chan struct{})}
	run := s.run
	run.Priority = tc.Priority
	e.job = s.cluster.start(s.ctx, w.Problem, run)
	s.entries[digest] = e
	s.inflight[tenant]++
	s.depth++
	s.runs.Add(1)
	s.wg.Add(1)
	go s.watch(e)
	return "running", nil
}

// watch finalizes one preparation: marshals the proof for bit-identical
// cached serving, folds the run's Report into the service metrics — a
// failed run's too, since the engine returns its Report on failure —
// and releases the admission slots.
func (s *Server) watch(e *serveEntry) {
	defer s.wg.Done()
	proof, report, err := e.job.Wait(context.Background())
	if err == nil {
		e.bytes, err = proof.MarshalBinary()
	}
	if e.err = err; err != nil {
		s.runFailures.Add(1)
	}

	s.mu.Lock()
	if report != nil { // nil when the run was refused before it started
		s.prepareNs += report.ComputeWall.Nanoseconds()
		s.decodeNs += report.DecodeWall.Nanoseconds()
		s.verifyNs += (time.Duration(report.VerifyTrials) * report.VerifyPerTrial).Nanoseconds()
		s.deliveryFaults.Add(int64(len(report.MissingNodes) + len(report.RepairedNodes)))
		s.repairRounds.Add(int64(report.RepairRounds))
	}
	// Tenant names come from clients: keep a key only while it counts
	// something, or the map and /metrics grow with every name ever seen.
	if s.inflight[e.tenant]--; s.inflight[e.tenant] == 0 {
		delete(s.inflight, e.tenant)
	}
	s.depth--
	s.mu.Unlock()
	close(e.done)
}

// lookup returns the entry for a digest or ErrUnknownProof.
func (s *Server) lookup(digest string) (*serveEntry, error) {
	s.mu.Lock()
	e, ok := s.entries[digest]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownProof
	}
	return e, nil
}

// Status reports a submission's live progress (the Job's status plus
// cache identity). Unknown digests return ErrUnknownProof.
func (s *Server) Status(digest string) (JobStatus, error) {
	e, err := s.lookup(digest)
	if err != nil {
		return JobStatus{}, err
	}
	return e.job.Status(), nil
}

// Result returns the proof bytes for a digest, blocking until the
// preparation finishes or ctx is done (long-poll). Every serve first
// decodes and batch-checks (VerifyProofBatch) the very bytes it hands
// out, so a corrupted cache fails closed with an error wrapping
// ErrMalformedProof. The returned slice is the cache's own storage;
// callers must not mutate it.
func (s *Server) Result(ctx context.Context, digest string) ([]byte, error) {
	e, err := s.lookup(digest)
	if err != nil {
		return nil, err
	}
	select {
	case <-e.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.err != nil {
		return nil, e.err
	}
	if err := s.spotCheck(ctx, e); err != nil {
		return nil, err
	}
	return e.bytes, nil
}

// VerifyStored runs Result's spot-check on demand; a corrupted entry
// answers (false, nil).
func (s *Server) VerifyStored(ctx context.Context, digest string) (bool, error) {
	_, err := s.Result(ctx, digest)
	if errors.Is(err, errSpotCheck) {
		return false, nil
	}
	return err == nil, err
}

// spotCheck decodes the entry's bytes and batch-checks the result. Every
// refusal but a context error is errSpotCheck.
func (s *Server) spotCheck(ctx context.Context, e *serveEntry) error {
	// Each check draws a distinct seed so repeated serves accumulate
	// soundness rather than replaying one fold.
	seed := s.run.Seed + s.spotSeed.Add(1)
	s.spotChecks.Add(1)
	var proof Proof
	ok, err := false, proof.UnmarshalBinary(e.bytes)
	if err == nil {
		ok, err = VerifyProofBatchContext(ctx, &proof, seed)
	}
	if err == nil && !ok {
		err = errors.New("folded evaluations disagree with the coefficients")
	}
	if err == nil || err == ctx.Err() {
		return err
	}
	s.spotCheckFailures.Add(1)
	return fmt.Errorf("%w: %s: %v", errSpotCheck, e.digest, err)
}

// --- HTTP front end -----------------------------------------------------------

// submitRequest is the POST /v1/submit body.
type submitRequest struct {
	Tenant string `json:"tenant"`
	Spec   string `json:"spec"`
}

// statusResponse is the GET /v1/status body: the JSON shape of
// JobStatus with the stage and state rendered as strings.
type statusResponse struct {
	Digest         string `json:"digest"`
	Problem        string `json:"problem"`
	State          string `json:"state"`
	Stage          string `json:"stage"`
	PointsDone     int    `json:"points_done"`
	PointsTotal    int    `json:"points_total"`
	Suspects       int    `json:"suspects"`
	DeliveryFaults int    `json:"delivery_faults"`
	RepairRounds   int    `json:"repair_rounds"`
	Error          string `json:"error,omitempty"`
}

// Handler returns the service's HTTP interface:
//
//	POST /v1/submit   {"tenant": "...", "spec": "kind k=v ..."}
//	                  → 202 {"digest","canonical","state"}; 429 +
//	                  Retry-After with {"error":"tenant_quota"|"queue_full"}
//	                  under backpressure; 400 on malformed specs.
//	GET  /v1/status   ?digest=… → live JobStatus JSON.
//	GET  /v1/result   ?digest=… → the proof bytes (long-poll until
//	                  prepared), spot-checked first; 500 with
//	                  {"error":"spot_check_failed"} if they fail it,
//	                  {"error":"preparation_failed"} if the run did.
//	POST /v1/verify   ?digest=… → the same spot-check on the cached
//	                  bytes → {"ok":true|false}.
//	GET  /metrics     → text counters: queue depth, cache hit ratio,
//	                  per-stage latency, delivery faults, repair rounds.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/result", s.handleResult)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad_body", "detail": err.Error()})
		return
	}
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad_json", "detail": err.Error()})
		return
	}
	out, err := s.Submit(req.Tenant, req.Spec)
	switch {
	case errors.Is(err, ErrTenantQuota), errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		code := "tenant_quota"
		if errors.Is(err, ErrQueueFull) {
			code = "queue_full"
		}
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": code, "detail": err.Error(), "digest": out.Digest})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad_spec", "detail": err.Error()})
	default:
		code := http.StatusAccepted
		if out.State == "cached" {
			code = http.StatusOK
		}
		writeJSON(w, code, map[string]string{"digest": out.Digest, "canonical": out.Canonical, "state": out.State})
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	digest := r.URL.Query().Get("digest")
	st, err := s.Status(digest)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown_digest"})
		return
	}
	resp := statusResponse{
		Digest:         digest,
		Problem:        st.Problem,
		State:          st.State.String(),
		Stage:          st.Stage.String(),
		PointsDone:     st.PointsDone,
		PointsTotal:    st.PointsTotal,
		Suspects:       st.Suspects,
		DeliveryFaults: st.DeliveryFaults,
		RepairRounds:   st.RepairRounds,
	}
	if st.Err != nil {
		resp.Error = st.Err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	bytes, err := s.Result(r.Context(), r.URL.Query().Get("digest"))
	switch {
	case errors.Is(err, ErrUnknownProof):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown_digest"})
	case errors.Is(err, errSpotCheck):
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "spot_check_failed", "detail": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "preparation_failed", "detail": err.Error()})
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(bytes)
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	ok, err := s.VerifyStored(r.Context(), r.URL.Query().Get("digest"))
	switch {
	case errors.Is(err, ErrUnknownProof):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown_digest"})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "verify_failed", "detail": err.Error()})
	default:
		writeJSON(w, http.StatusOK, map[string]bool{"ok": ok})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.WriteMetrics(w)
}

// WriteMetrics renders the service counters in the text exposition
// format: admission and cache behaviour, live queue depth, per-tenant
// in-flight counts, and the run aggregates folded from every finished
// run's Report, failed runs included (per-stage wall time, delivery
// faults, repair rounds).
func (s *Server) WriteMetrics(w io.Writer) {
	s.mu.Lock()
	depth := s.depth
	tenants := make([]string, 0, len(s.inflight))
	for t := range s.inflight {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	inflight := make([]int, len(tenants))
	for i, t := range tenants {
		inflight[i] = s.inflight[t]
	}
	prepare, decode, verify := s.prepareNs, s.decodeNs, s.verifyNs
	s.mu.Unlock()

	submits := s.submits.Load()
	hits, co := s.cacheHits.Load(), s.coalesced.Load()
	ratio := 0.0
	if submits > 0 {
		ratio = float64(hits+co) / float64(submits)
	}
	fmt.Fprintf(w, "camelot_submits_total %d\n", submits)
	fmt.Fprintf(w, "camelot_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "camelot_cache_coalesced_total %d\n", co)
	fmt.Fprintf(w, "camelot_cache_hit_ratio %g\n", ratio)
	fmt.Fprintf(w, "camelot_refused_tenant_quota_total %d\n", s.refusedQuota.Load())
	fmt.Fprintf(w, "camelot_refused_queue_full_total %d\n", s.refusedQueue.Load())
	fmt.Fprintf(w, "camelot_queue_depth %d\n", depth)
	for i, t := range tenants {
		fmt.Fprintf(w, "camelot_tenant_inflight{tenant=%q} %d\n", t, inflight[i])
	}
	fmt.Fprintf(w, "camelot_runs_total %d\n", s.runs.Load())
	fmt.Fprintf(w, "camelot_run_failures_total %d\n", s.runFailures.Load())
	fmt.Fprintf(w, "camelot_delivery_faults_total %d\n", s.deliveryFaults.Load())
	fmt.Fprintf(w, "camelot_repair_rounds_total %d\n", s.repairRounds.Load())
	fmt.Fprintf(w, "camelot_stage_seconds{stage=\"prepare\"} %g\n", float64(prepare)/1e9)
	fmt.Fprintf(w, "camelot_stage_seconds{stage=\"decode\"} %g\n", float64(decode)/1e9)
	fmt.Fprintf(w, "camelot_stage_seconds{stage=\"verify\"} %g\n", float64(verify)/1e9)
	fmt.Fprintf(w, "camelot_spot_checks_total %d\n", s.spotChecks.Load())
	fmt.Fprintf(w, "camelot_spot_check_failures_total %d\n", s.spotCheckFailures.Load())
}
