package camelot

// Multi-process deployment facade: a Coordinator that serves a run's
// point-range assignments to worker daemons over the control protocol,
// and ServeNode, the daemon loop a worker process runs. The coordinator
// is a Transport that assigns ranges itself — plug it into a cluster
// with AsTransport() and the engine assigns each round's ranges to it,
// whose workers run the same node executor the engine runs in process,
// while decode, verify, erasure absorption, and repair rounds run
// unchanged. See ARCHITECTURE.md "Multi-process deployment".

import (
	"context"
	"fmt"
	"time"

	"camelot/internal/core"
	"camelot/internal/ctrl"
)

// CoordinatorConfig parameterizes NewCoordinator.
type CoordinatorConfig struct {
	// Workload is the spec line ("triangles n=24 p=0.3 seed=7") naming
	// what the cluster computes; required. It is parsed locally for the
	// run's geometry and shipped verbatim to workers, so both sides
	// construct the same problem (see ParseWorkload).
	Workload string
	// ListenAddr is the TCP address workers join (default ":0" —
	// ephemeral; read it back with Addr).
	ListenAddr string
	// Secret enables per-frame HMAC authentication when non-empty; it
	// must match every worker's. Empty runs unauthenticated (loopback
	// development mode).
	Secret []byte
	// MinWorkers is how many joined workers the initial round waits for
	// (default 1); JoinTimeout bounds that wait (default 30s).
	MinWorkers  int
	JoinTimeout time.Duration
}

// Coordinator owns one multi-process run: a bound listener admitting
// worker daemons, the parsed workload, and the transport seam the
// engine drives. Create it, hand AsTransport() to the cluster options,
// submit Workload().Problem, and the run executes on whatever workers
// join. The engine closes the coordinator when the run ends (workers
// are told Done and exit cleanly); Close is the idempotent manual
// teardown for runs that never start.
type Coordinator struct {
	co *ctrl.Coordinator
	w  *Workload
}

// NewCoordinator parses the workload and binds the worker listener for
// a run of nodes logical nodes. The listener is live — and Addr final —
// before this returns, so callers can print the join address ahead of
// starting the run.
func NewCoordinator(nodes int, cfg CoordinatorConfig) (*Coordinator, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("camelot: coordinator needs at least 1 node, got %d", nodes)
	}
	w, err := ParseWorkload(cfg.Workload)
	if err != nil {
		return nil, fmt.Errorf("camelot: workload spec: %w", err)
	}
	co, err := ctrl.NewCoordinator(nodes, ctrl.Config{
		ListenAddr:  cfg.ListenAddr,
		Secret:      cfg.Secret,
		Kind:        w.Kind,
		Instance:    w.Instance,
		MinWorkers:  cfg.MinWorkers,
		JoinTimeout: cfg.JoinTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("camelot: %w", err)
	}
	return &Coordinator{co: co, w: w}, nil
}

// Addr is the bound listener address — what worker processes pass to
// `camelot node -join`.
func (c *Coordinator) Addr() string { return c.co.Addr() }

// Workload is the parsed spec; submit Workload().Problem to the run.
func (c *Coordinator) Workload() *Workload { return c.w }

// Close tears the coordinator down (idempotent). Runs the engine
// finished are already closed; this is for error paths.
func (c *Coordinator) Close() { c.co.Close() }

// AsTransport adapts the coordinator to the cluster's transport seam.
// The returned option must be paired with WithNodes of the same count
// the coordinator was built for — assignments are ranges of that
// geometry — and a mismatch fails the run with a naming error rather
// than shipping wrong ranges.
func (c *Coordinator) AsTransport() ClusterOption {
	return WithTransport(func(k int) (Transport, error) {
		if k != c.co.K() {
			return nil, fmt.Errorf(
				"camelot: coordinator built for %d nodes but run configured %d (pair AsTransport with WithNodes(%d))",
				c.co.K(), k, c.co.K())
		}
		return c.co, nil
	})
}

// NodeConfig parameterizes ServeNode: the coordinator's address to Join
// (required), the shared Secret, and FailOwner, the deterministic-crash
// knob behind `camelot node -fail-owner`.
type NodeConfig = ctrl.WorkerConfig

// ServeNode runs the worker daemon until the coordinator says the run
// is done (returns nil), the context ends, or the coordinator refuses
// the join. Connection drops are retried with backoff; a reconnecting
// worker resumes its slot and replays undelivered assignments. Each
// Assign manifest's (kind, instance) pair is rebuilt through the same
// ParseWorkload the coordinator used.
func ServeNode(ctx context.Context, cfg NodeConfig) error {
	return ctrl.RunWorker(ctx, cfg, func(kind string, instance []byte) (core.Problem, error) {
		w, err := ParseWorkload(kind + " " + string(instance))
		if err != nil {
			return nil, err
		}
		return w.Problem, nil
	})
}
