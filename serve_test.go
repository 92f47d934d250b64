package camelot

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveGatedTransport blocks every Send until the gate closes, holding
// runs deterministically in flight so admission-control tests see a
// full queue instead of racing run completion.
type serveGatedTransport struct {
	inner Transport
	gate  chan struct{}
}

func (t *serveGatedTransport) Send(ctx context.Context, m NodeShares) error {
	select {
	case <-t.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	return t.inner.Send(ctx, m)
}

func (t *serveGatedTransport) Gather(ctx context.Context, k int) ([]NodeShares, error) {
	return t.inner.Gather(ctx, k)
}

func (t *serveGatedTransport) GatherQuorum(ctx context.Context, spec GatherSpec) ([]NodeShares, error) {
	return t.inner.GatherQuorum(ctx, spec)
}

func (t *serveGatedTransport) Close() { t.inner.Close() }

// TestServeCacheHitsAreBitIdentical storms one server from two tenants
// with a shared (cache-hitting) workload and distinct ones that pairs of
// goroutines race to admit; it asserts one run per digest and every cached
// serve bit-identical to the first served bytes, which TestGoldenProofs pins.
func TestServeCacheHitsAreBitIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := NewCluster(WithNodes(3))
	defer cl.Close()
	srv := NewServer(cl, ServerConfig{
		FaultTolerance: 1,
		MaxQueueDepth:  64,
		Tenants: map[string]TenantConfig{
			"alice": {MaxInFlight: 16, Priority: 3},
			"bob":   {MaxInFlight: 16, Priority: 1},
		},
	})
	defer srv.Close()

	const shared = "triangles n=16 p=0.3 seed=42"
	out, err := srv.Submit("alice", shared)
	if err != nil {
		t.Fatal(err)
	}
	if out.State != "running" {
		t.Fatalf("first submission state = %q, want running", out.State)
	}
	ref, err := srv.Result(ctx, out.Digest)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errc, start := make(chan error, workers), make(chan struct{})
	for g := 0; g < workers; g++ {
		tenant := "alice"
		if g%2 == 1 {
			tenant = "bob"
		}
		distinct := fmt.Sprintf("triangles n=12 p=0.3 seed=%d", 100+g/2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 3; i++ {
				miss, err := srv.Submit(tenant, distinct)
				if err != nil {
					errc <- fmt.Errorf("%s distinct submit: %w", tenant, err)
					return
				}
				if miss.Digest == out.Digest {
					errc <- fmt.Errorf("distinct workload %q collided with shared digest", distinct)
					return
				}
				db, err := srv.Result(ctx, miss.Digest)
				if err != nil {
					errc <- fmt.Errorf("%s distinct result: %w", tenant, err)
					return
				}
				var dp Proof
				if err := dp.UnmarshalBinary(db); err != nil {
					errc <- fmt.Errorf("%s distinct proof bytes: %w", tenant, err)
					return
				}
				hit, err := srv.Submit(tenant, shared)
				if err != nil {
					errc <- fmt.Errorf("%s shared submit: %w", tenant, err)
					return
				}
				got, err := srv.Result(ctx, hit.Digest)
				if err != nil {
					errc <- fmt.Errorf("%s shared result: %w", tenant, err)
					return
				}
				if !bytes.Equal(got, ref) {
					errc <- fmt.Errorf("%s: cached proof not bit-identical to the first served", tenant)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if runs := srv.runs.Load(); runs != 1+workers/2 {
		t.Errorf("%d runs for %d distinct specs: a miss admitted twice", runs, 1+workers/2)
	}
	if ok, err := srv.VerifyStored(ctx, out.Digest); err != nil || !ok {
		t.Fatalf("VerifyStored on cached proof = (%v, %v), want (true, nil)", ok, err)
	}

	// A hit builds nothing: a cached or coalesced Submit only resolves and
	// digests (47–62 allocations when it built first). csp n=7 resolves but
	// cannot build: its error returns, and no entry or submit is left.
	for _, spec := range []string{"triangles n=36", "permanent n=10", "hamilton n=10", "cnfsat", "csp n=7"} {
		entries, submits := len(srv.entries), srv.submits.Load()
		out, err := srv.Submit("alice", spec)
		if _, perr := ParseWorkload(spec); perr != nil {
			if fmt.Sprint(err) != perr.Error() || len(srv.entries) != entries || srv.submits.Load() != submits {
				t.Errorf("%s: err = %v, %d entries and %d submits, want %q, %d and %d", spec, err, len(srv.entries), srv.submits.Load(), perr, entries, submits)
			}
			continue
		}
		_, _ = srv.Result(ctx, out.Digest) // a failed run fails the cached row
		for _, state := range []string{"cached", "coalesced"} {
			if state == "coalesced" { // an entry in flight in the cached one's place
				srv.entries[out.Digest] = &serveEntry{done: make(chan struct{})}
			}
			if n := testing.AllocsPerRun(100, func() {
				if got, err := srv.Submit("alice", spec); got.State != state || err != nil {
					t.Errorf("%s: Submit = %q, %v, want %s", spec, got.State, err, state)
				}
			}); n > 32 {
				t.Errorf("%s: a %s Submit allocates %.0f times, want at most 32", spec, state, n)
			}
		}
	}
}

// TestServeQuotaRefusalsTyped pins the admission-control contract: a
// tenant at its in-flight cap is refused with ErrTenantQuota, a full
// server with ErrQueueFull, and attaching to an identical in-flight
// preparation is never refused (single-flight does not consume quota).
func TestServeQuotaRefusalsTyped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	gate := make(chan struct{})
	cl := NewCluster(WithNodes(2), WithTransport(func(k int) (Transport, error) {
		return &serveGatedTransport{inner: NewBroadcastBus(k), gate: gate}, nil
	}))
	defer cl.Close()
	srv := NewServer(cl, ServerConfig{MaxQueueDepth: 2, DefaultMaxInFlight: 1})
	defer srv.Close()

	first, err := srv.Submit("alice", "triangles n=12 p=0.3 seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("alice", "triangles n=12 p=0.3 seed=2"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("tenant over cap: err = %v, want ErrTenantQuota", err)
	}
	again, err := srv.Submit("alice", "triangles n=12 p=0.3 seed=1")
	if err != nil {
		t.Fatalf("coalescing with own in-flight run should not consume quota: %v", err)
	}
	if again.State != "coalesced" {
		t.Fatalf("identical in-flight resubmission state = %q, want coalesced", again.State)
	}
	second, err := srv.Submit("bob", "triangles n=12 p=0.3 seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("carol", "triangles n=12 p=0.3 seed=3"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("server at queue depth: err = %v, want ErrQueueFull", err)
	}

	close(gate)
	for _, digest := range []string{first.Digest, second.Digest} {
		if _, err := srv.Result(ctx, digest); err != nil {
			t.Fatalf("result after release: %v", err)
		}
	}
	// With the queue drained, the refused tenants are admitted.
	if _, err := srv.Submit("carol", "triangles n=12 p=0.3 seed=3"); err != nil {
		t.Fatalf("submission after drain: %v", err)
	}
}

// TestServeHTTPRoundTrip drives the wire interface end to end: submit,
// long-poll the result, verify the cached artifact, re-submit for a
// cache hit, and read the metrics — plus the 400/404/429 edges.
func TestServeHTTPRoundTrip(t *testing.T) {
	cl := NewCluster(WithNodes(2))
	defer cl.Close()
	srv := NewServer(cl, ServerConfig{FaultTolerance: 1, RetryAfter: 3 * time.Second})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}
	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp, body := post("/v1/submit", `{"tenant":"alice","spec":"triangles n=12 p=0.3 seed=7"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var sub struct{ Digest, State string }
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	resp, proofBytes := get("/v1/result?digest=" + sub.Digest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, body %s", resp.StatusCode, proofBytes)
	}
	var proof Proof
	if err := proof.UnmarshalBinary(proofBytes); err != nil {
		t.Fatalf("result bytes do not unmarshal: %v", err)
	}
	if ok, err := VerifyProofBatch(&proof, 99); err != nil || !ok {
		t.Fatalf("served proof fails batch verification: (%v, %v)", ok, err)
	}

	resp, body = post("/v1/submit", `{"tenant":"bob","spec":"triangles seed=7 n=12 p=0.3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-submit (reordered fields) status = %d, want 200 cached; body %s", resp.StatusCode, body)
	}
	var hit struct{ Digest, State string }
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if hit.State != "cached" || hit.Digest != sub.Digest {
		t.Fatalf("re-submit = %+v, want cached with digest %s", hit, sub.Digest)
	}

	resp, body = get("/v1/status?digest=" + sub.Digest)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"state":"succeeded"`) {
		t.Fatalf("status = %d %s", resp.StatusCode, body)
	}
	resp, body = post("/v1/verify?digest="+sub.Digest, "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("verify = %d %s", resp.StatusCode, body)
	}
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "camelot_cache_hits_total 1") {
		t.Fatalf("metrics = %d %s", resp.StatusCode, body)
	}

	if resp, _ = get("/v1/result?digest=deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest status = %d, want 404", resp.StatusCode)
	}
	if resp, _ = post("/v1/submit", `{"tenant":"a","spec":"nonsense n=1"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec status = %d, want 400", resp.StatusCode)
	}
}

// TestServeBackpressureOnTheWire asserts a saturated server answers 429
// with a Retry-After hint and a typed JSON error code.
func TestServeBackpressureOnTheWire(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	gate := make(chan struct{})
	cl := NewCluster(WithNodes(2), WithTransport(func(k int) (Transport, error) {
		return &serveGatedTransport{inner: NewBroadcastBus(k), gate: gate}, nil
	}))
	defer cl.Close()
	srv := NewServer(cl, ServerConfig{MaxQueueDepth: 1, RetryAfter: 2 * time.Second})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/submit", "application/json",
		strings.NewReader(`{"tenant":"alice","spec":"triangles n=12 p=0.3 seed=1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ Digest string }
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/v1/submit", "application/json",
		strings.NewReader(`{"tenant":"bob","spec":"triangles n=12 p=0.3 seed=2"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want %q", resp.Header.Get("Retry-After"), "2")
	}
	if !strings.Contains(string(body), `"error":"queue_full"`) {
		t.Fatalf("429 body %s lacks queue_full code", body)
	}

	close(gate)
	if _, err := srv.Result(ctx, sub.Digest); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkServeFirstRun measures a cold submission (unique seed per
// iteration, so every run is a cache miss) end to end.
func BenchmarkServeFirstRun(b *testing.B) {
	cl := NewCluster(WithNodes(2))
	defer cl.Close()
	srv := NewServer(cl, ServerConfig{FaultTolerance: 1, MaxQueueDepth: 1 << 20, DefaultMaxInFlight: 1 << 20})
	defer srv.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := srv.Submit("bench", fmt.Sprintf("triangles n=48 p=0.2 seed=%d", i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Result(ctx, out.Digest); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServeTenantNamesDoNotAccumulate: tenant names are client-supplied,
// so a key in the in-flight table (and its /metrics line) must live only
// while it counts a running preparation — a thousand tenants passing
// through leave nothing behind.
func TestServeTenantNamesDoNotAccumulate(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := NewCluster(WithNodes(2))
	defer cl.Close()
	srv := NewServer(cl, ServerConfig{MaxQueueDepth: 64})
	defer srv.Close()

	// Eight distinct specs, so eight of the tenants run a preparation
	// and the rest coalesce onto one or hit the cache.
	digests := map[string]bool{}
	for i := 0; i < 1000; i++ {
		out, err := srv.Submit(fmt.Sprintf("tenant-%04d", i), fmt.Sprintf("permanent n=4 seed=%d", i%8))
		if err != nil {
			t.Fatal(err)
		}
		digests[out.Digest] = true
	}
	for d := range digests {
		if _, err := srv.Result(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	left := len(srv.inflight)
	srv.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d tenants still in the in-flight table after every preparation finished", left)
	}
	var metrics strings.Builder
	srv.WriteMetrics(&metrics)
	if strings.Contains(metrics.String(), "tenant-") {
		t.Fatalf("/metrics still names finished tenants:\n%s", metrics.String())
	}
}

// BenchmarkServeCacheHit measures serving a proof the cache already
// holds — the spot-checked fast path the service exists for.
func BenchmarkServeCacheHit(b *testing.B) {
	cl := NewCluster(WithNodes(2))
	defer cl.Close()
	srv := NewServer(cl, ServerConfig{FaultTolerance: 1})
	defer srv.Close()
	ctx := context.Background()
	const spec = "triangles n=48 p=0.2 seed=42"
	out, err := srv.Submit("bench", spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Result(ctx, out.Digest); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit, err := srv.Submit("bench", spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Result(ctx, hit.Digest); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServeFailedRunReachesMetrics: a run refused by the decoder still
// spent time preparing and decoding, and /metrics must show it beside the
// failure it counts.
func TestServeFailedRunReachesMetrics(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := NewCluster(WithNodes(4))
	defer cl.Close()
	// A lying node corrupts its whole block, about e/4 shares: far beyond
	// a fault tolerance of 1.
	srv := NewServer(cl, ServerConfig{FaultTolerance: 1, Run: []RunOption{WithAdversary(LyingNodes(7, 1))}})
	defer srv.Close()
	out, err := srv.Submit("alice", "triangles n=16 p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Result(ctx, out.Digest); !errors.Is(err, ErrDecodeFailure) {
		t.Fatalf("result err = %v, want ErrDecodeFailure", err)
	}
	var metrics strings.Builder
	srv.WriteMetrics(&metrics)
	var decode float64
	for _, line := range strings.Split(metrics.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `camelot_stage_seconds{stage="decode"} `); ok {
			if decode, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if decode <= 0 || !strings.Contains(metrics.String(), "camelot_run_failures_total 1\n") {
		t.Fatalf("after a refused run, decode stage seconds %g and\n%s", decode, metrics.String())
	}
}

// TestServeRunOptionsReachTheRun: the run options of ServerConfig.Run are
// the options of every preparation — a lying node is caught and named,
// the trial count is the configured one — while FaultTolerance, which
// keys the digest, overrides what Run says.
func TestServeRunOptionsReachTheRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := NewCluster(WithNodes(4))
	defer cl.Close()
	const faults = 40
	srv := NewServer(cl, ServerConfig{
		FaultTolerance: faults,
		Run: []RunOption{
			WithAdversary(LyingNodes(7, 1)), WithVerifyTrials(3), WithSeed(5),
			WithFaultTolerance(1),
		},
	})
	defer srv.Close()
	if srv.run.FaultTolerance != faults || srv.run.Seed != 5 {
		t.Fatalf("resolved record has FaultTolerance %d, Seed %d; want %d, 5", srv.run.FaultTolerance, srv.run.Seed, faults)
	}
	out, err := srv.Submit("alice", "triangles n=16 p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Result(ctx, out.Digest); err != nil {
		t.Fatal(err)
	}
	e, err := srv.lookup(out.Digest)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, _ := e.job.Wait(ctx)
	if fmt.Sprint(rep.SuspectNodes) != "[1]" || rep.VerifyTrials != 3 || rep.FaultTolerance != faults {
		t.Fatalf("report: suspects %v, trials %d, fault tolerance %d; want [1], 3, %d",
			rep.SuspectNodes, rep.VerifyTrials, rep.FaultTolerance, faults)
	}
	if st, err := srv.Status(out.Digest); err != nil || st.Suspects != 1 {
		t.Fatalf("status: suspects %d, err %v; want 1", st.Suspects, err)
	}
}

// TestServeRefusesCorruptedCache flips every byte of a cached proof in
// turn: the spot-check must read the bytes that would be served, so each
// flip is refused with an error wrapping ErrMalformedProof, VerifyStored
// says false, and restoring the byte serves the original again. One flip
// also goes over the wire, where it is a typed refusal and a counted
// failure.
func TestServeRefusesCorruptedCache(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := NewCluster(WithNodes(2))
	defer cl.Close()
	srv := NewServer(cl, ServerConfig{FaultTolerance: 1})
	defer srv.Close()
	out, err := srv.Submit("alice", "triangles n=12 p=0.3 seed=7")
	if err != nil {
		t.Fatal(err)
	}
	honest, err := srv.Result(ctx, out.Digest)
	if err != nil {
		t.Fatal(err)
	}
	honest = bytes.Clone(honest)
	e, err := srv.lookup(out.Digest)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.bytes {
		e.bytes[i] ^= 0xff
		if got, err := srv.Result(ctx, out.Digest); !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("byte %d of %d flipped: Result = (%d bytes, %v), want an ErrMalformedProof refusal", i, len(e.bytes), len(got), err)
		}
		if ok, err := srv.VerifyStored(ctx, out.Digest); ok || err != nil {
			t.Fatalf("byte %d of %d flipped: VerifyStored = (%v, %v), want (false, nil)", i, len(e.bytes), ok, err)
		}
		e.bytes[i] ^= 0xff
		if got, err := srv.Result(ctx, out.Digest); err != nil || !bytes.Equal(got, honest) {
			t.Fatalf("byte %d restored: Result = (%d bytes, %v), want the original %d bytes", i, len(got), err, len(honest))
		}
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	e.bytes[len(e.bytes)/2] ^= 0xff
	defer func() { e.bytes[len(e.bytes)/2] ^= 0xff }()
	resp, err := http.Get(ts.URL + "/v1/result?digest=" + out.Digest)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK || !strings.Contains(string(body), `"error":"spot_check_failed"`) {
		t.Fatalf("corrupted /v1/result = %d %s, want a spot_check_failed refusal", resp.StatusCode, body)
	}
	resp, err = http.Post(ts.URL+"/v1/verify?digest="+out.Digest, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":false`) {
		t.Fatalf("corrupted /v1/verify = %d %s, want {\"ok\":false}", resp.StatusCode, body)
	}
	var metrics strings.Builder
	srv.WriteMetrics(&metrics)
	want := fmt.Sprintf("camelot_spot_check_failures_total %d\n", 2*len(e.bytes)+2)
	if !strings.Contains(metrics.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, metrics.String())
	}
}
