package camelot

// The session layer: a Cluster is the long-lived form of the paper's
// community — K logical nodes standing by to prepare encoded proofs
// for a stream of inputs. It owns the resources the one-shot facade
// used to rebuild per call: the bounded worker pool every in-flight
// run shares fairly, the transport factory, and the warm per-prime
// geometry state (memoized fields and NTT plans are process-wide
// already; the cluster adds prime selections and Reed–Solomon codes
// keyed by geometry). Runs are submitted asynchronously and tracked as
// Jobs.

import (
	"context"
	"errors"
	"sync"

	"camelot/internal/core"
)

// ErrClusterClosed is the failure state of jobs submitted to a closed
// cluster.
var ErrClusterClosed = errors.New("camelot: cluster closed")

// Cluster is a long-lived Camelot runtime. Construct with NewCluster,
// submit runs with Submit, and release it with Close. A Cluster is safe
// for concurrent use; any number of goroutines may submit jobs and
// in-flight jobs of any size share the pool fairly.
type Cluster struct {
	// base is the record every run on this cluster starts from: the
	// cluster-scoped options as resolved by NewCluster, plus the shared
	// Pool and the warm Geometry cache.
	base core.Options

	mu     sync.Mutex
	wg     sync.WaitGroup // in-flight jobs
	closed bool
}

// NewCluster creates a running cluster. Cluster-scoped options fix the
// logical node count K every run uses (default 1), the shared pool
// width (default GOMAXPROCS), and the transport factory.
func NewCluster(opts ...ClusterOption) *Cluster {
	base := resolve(core.Options{}, opts)
	base.Pool = core.NewPool(base.MaxParallelism)
	base.Geometry = core.NewGeometryCache()
	return &Cluster{base: base}
}

// Submit enqueues the full Camelot protocol for p as an asynchronous
// job and returns its handle immediately. The context governs the run
// itself: cancelling it aborts the job (Job.Wait then reports the
// cancellation). Submission never blocks on other jobs; the shared
// pool arbitrates execution. Submitting to a closed cluster yields a
// job already failed with ErrClusterClosed.
func (cl *Cluster) Submit(ctx context.Context, p Problem, opts ...RunOption) *Job {
	return cl.start(ctx, p, resolve(cl.base, opts))
}

// start runs the job goroutine on opts, a record resolved from cl.base.
// One-shot calls and the proof service enter here with the record their
// own options resolved to, so every front end runs the same pipeline.
func (cl *Cluster) start(ctx context.Context, p core.Problem, opts core.Options) *Job {
	j := newJob(p)
	// An explicitly narrowed per-call parallelism bound (one-shot
	// facade calls with WithMaxParallelism) drops the shared Pool, so the
	// run builds a private pool of that width: the shared pool's width
	// is fixed and must not silently widen a caller's requested bound.
	if opts.MaxParallelism != 0 && opts.MaxParallelism != opts.Pool.Width() {
		opts.Pool = nil
	}
	opts.Progress = &j.progress
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		j.finish(nil, nil, ErrClusterClosed)
		return j
	}
	cl.wg.Add(1)
	cl.mu.Unlock()
	go func() {
		defer cl.wg.Done()
		proof, rep, err := core.Run(ctx, p, opts)
		j.finish(proof, rep, err)
	}()
	return j
}

// Close drains the cluster: new submissions fail with ErrClusterClosed,
// jobs already in flight run to completion, then the shared pool shuts
// down. It blocks until the drain is done and is idempotent.
func (cl *Cluster) Close() {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	cl.mu.Unlock()
	cl.wg.Wait()
	cl.base.Pool.Close()
}

// defaultCluster is the lazily initialized runtime behind the one-shot
// facade functions. It lives for the process (never closed) with
// default cluster configuration; per-call options override the run
// geometry per job.
var (
	defaultClusterOnce sync.Once
	defaultClusterInst *Cluster
)

// DefaultCluster returns the shared process-wide cluster the one-shot
// facade functions run on, creating it on first use. It is never
// closed; callers wanting lifecycle control create their own with
// NewCluster.
func DefaultCluster() *Cluster {
	defaultClusterOnce.Do(func() { defaultClusterInst = NewCluster() })
	return defaultClusterInst
}
