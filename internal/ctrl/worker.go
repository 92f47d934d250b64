package ctrl

// The worker daemon: dial the coordinator, handshake into a slot,
// evaluate whatever ranges arrive, stream the frames back, repeat
// until told Done. A worker holds no run state beyond its problem
// cache, its pool and its resume token — everything it needs to produce
// bit-identical shares travels in the Assign manifest, which it hands
// to the one node model the in-process engine runs too (core.Executor):
// the executor evaluates the range, applies the manifest's fault record
// as the manifest's sponsor and sends the frame. A dropped connection
// is retried with exponential backoff; presenting the resume token
// reattaches the same slot, and the coordinator replays any assignment
// whose shares never landed, so a mid-run blip costs latency, not the
// run.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"camelot/internal/core"
)

// ErrFailInjected is returned by a worker whose WorkerConfig.FailOwner
// fault was triggered — the churn tests' and examples' way of killing
// a worker at a deterministic point in the protocol.
var ErrFailInjected = errors.New("ctrl: injected worker failure")

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Join is the coordinator's TCP address (required).
	Join string
	// Secret must match the coordinator's; empty means the cluster runs
	// unauthenticated.
	Secret []byte
	// FailOwner > 0 makes the worker die (ErrFailInjected) the moment a
	// round-0 assignment names that logical node — a deterministic
	// fault-injection knob for churn tests and the multiproc example.
	// Restricting it to round 0 means every worker in a cluster can
	// carry the same knob (which worker draws the fated owner is a join
	// race) and the repair round's re-assignment still succeeds on a
	// survivor. Node 0 is not injectable: 0 is the disabled value.
	FailOwner int
}

// A worker's patience with its coordinator.
const (
	// workerDialTimeout bounds each dial attempt.
	workerDialTimeout = 2 * time.Second
	// workerRetryBackoff is the initial reconnect delay; it doubles per
	// attempt up to workerMaxBackoff.
	workerRetryBackoff = 100 * time.Millisecond
	workerMaxBackoff   = 2 * time.Second
	// workerMaxAttempts bounds *consecutive failed* connection attempts
	// before the daemon gives up; any successful handshake resets the
	// count.
	workerMaxAttempts = 5
)

// RunWorker runs the daemon until the coordinator says Done (nil), the
// context ends, a terminal refusal arrives, or reconnection is
// exhausted. build rebuilds an Assign manifest's problem from its
// (kind, instance) pair; it must construct exactly the problem the
// coordinator runs, deterministically, or the shares come back wrong.
func RunWorker(ctx context.Context, cfg WorkerConfig, build func(kind string, instance []byte) (core.Problem, error)) error {
	if cfg.Join == "" {
		return fmt.Errorf("ctrl: worker needs a coordinator address")
	}
	// planners persist across assignments, reconnects, and repair
	// rounds: each caches its problem's compiled per-prime plans, so a
	// re-assigned range re-enters evaluation without recompiling.
	// Assignments run concurrently, so the cache is locked.
	var mu sync.Mutex
	cache := map[string]*core.Planner{}
	planners := func(kind string, instance []byte) (*core.Planner, error) {
		mu.Lock()
		defer mu.Unlock()
		key := kind + "\x00" + string(instance)
		if pl, ok := cache[key]; ok {
			return pl, nil
		}
		p, err := build(kind, instance)
		if err != nil {
			return nil, err
		}
		cache[key] = core.NewPlanner(p)
		return cache[key], nil
	}
	// One pool evaluates every assignment the daemon is sent.
	pool := core.NewPool(0)
	defer pool.Close()
	var resume []byte
	backoff := workerRetryBackoff
	failures := 0
	for {
		joined, terminal, err := serveWorker(ctx, cfg, &resume, planners, pool)
		if terminal {
			return err
		}
		if joined {
			// The session worked until the connection died: fresh
			// patience for the reconnect.
			failures = 0
			backoff = workerRetryBackoff
		} else {
			failures++
			if failures >= workerMaxAttempts {
				return fmt.Errorf("ctrl: giving up on %s after %d failed attempts: %w", cfg.Join, failures, err)
			}
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > workerMaxBackoff {
			backoff = workerMaxBackoff
		}
	}
}

// serveWorker runs one connection's lifetime. joined reports whether
// the handshake completed (resets the retry budget); terminal means
// RunWorker must return err instead of reconnecting.
func serveWorker(ctx context.Context, cfg WorkerConfig, resume *[]byte, planners plannersFunc, pool *core.Pool) (joined, terminal bool, err error) {
	conn, err := net.DialTimeout("tcp", cfg.Join, workerDialTimeout)
	if err != nil {
		return false, false, err
	}
	defer conn.Close()
	// The context must be able to interrupt blocking reads.
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	wc := newWireConn(conn)
	if err := wc.send(Hello{Resume: *resume}); err != nil {
		return false, false, err
	}
	_, msg, err := wc.recv()
	if err != nil {
		return false, false, err
	}
	ack, ok := msg.(HelloAck)
	if !ok {
		if em, isErr := msg.(ErrorMsg); isErr {
			return false, true, fmt.Errorf("ctrl: coordinator refused join: %s (code %d)", em.Msg, em.Code)
		}
		return false, false, fmt.Errorf("%w: expected helloAck, got tag for %T", ErrBadFrame, msg)
	}
	*resume = append((*resume)[:0], ack.Resume[:]...)
	wc.key = deriveKey(cfg.Secret, ack.Challenge)
	joined = true

	// Assignments are waited for on goroutines of their own, evaluating
	// on the pool, so this loop keeps reading: a Done, or the first
	// assignment of a later round, ends the session's or the earlier
	// round's evaluations and held frames, as the end of a round ends the
	// engine's stragglers.
	var cur struct { // the latest round assigned
		round int
		ctx   context.Context
		end   context.CancelFunc
	}
	cur.ctx, cur.end = context.WithCancel(ctx)
	var work sync.WaitGroup
	defer func() {
		conn.Close() // a send still in flight fails at once
		cur.end()
		work.Wait()
	}()
	for {
		_, msg, err := wc.recv()
		if err != nil {
			if ctx.Err() != nil {
				return joined, true, ctx.Err()
			}
			return joined, false, err
		}
		switch m := msg.(type) {
		case Assign:
			if cfg.FailOwner > 0 && m.Owner == cfg.FailOwner && m.Round == 0 {
				return joined, true, fmt.Errorf("%w: assigned node %d", ErrFailInjected, m.Owner)
			}
			if m.Round < cur.round {
				continue // replayed from a round already over
			}
			if m.Round > cur.round {
				cur.end()
				cur.round = m.Round
				cur.ctx, cur.end = context.WithCancel(ctx)
			}
			work.Add(1)
			go func(ctx context.Context) {
				defer work.Done()
				if err := runAssign(ctx, wc, m, planners, pool); err != nil && ctx.Err() == nil {
					conn.Close() // the read loop fails, and the worker reconnects
				}
			}(cur.ctx)
		case Done:
			return joined, true, nil
		case ErrorMsg:
			return joined, true, fmt.Errorf("ctrl: coordinator error: %s (code %d)", m.Msg, m.Code)
		default:
			return joined, false, fmt.Errorf("%w: unexpected %T mid-session", ErrBadFrame, msg)
		}
	}
}

// runAssign runs one manifest on the node executor, as the manifest's
// sponsor, and sends what it sends; a range the fault record loses is
// reported Lost before it is evaluated. An evaluation-side failure —
// unknown kind, geometry skew, a problem error — travels as an in-band
// Err frame: a delivery outcome the coordinator's fault accounting
// understands, not a silent hang.
func runAssign(ctx context.Context, wc *wireConn, m Assign, planners plannersFunc, pool *core.Pool) error {
	pl, err := planners(m.Kind, m.Instance)
	if err == nil {
		x := &core.Executor{
			Planner: pl, Pool: pool,
			Send: func(_ context.Context, m core.NodeShares) error { return wc.send(m) },
			Lost: func(a core.AssignSpec) error {
				return wc.send(Lost{Owner: a.Owner, Sponsor: a.Sponsor, Round: a.Round})
			},
		}
		var wait func() error
		if wait, err = x.AssignRanges(ctx, []core.AssignSpec{m.AssignSpec}, nil); err == nil {
			err = wait()
		}
	}
	if err == nil || ctx.Err() != nil {
		return err
	}
	msg := err.Error()
	if len(msg) > maxErrMsgLen {
		msg = msg[:maxErrMsgLen]
	}
	return wc.send(core.NodeShares{
		ID: m.Owner, From: m.Sponsor, Round: m.Round, Lo: m.Lo, Hi: m.Hi,
		Err: &core.RemoteError{Msg: msg},
	})
}

// plannersFunc returns the cached planner for a manifest's (kind,
// instance), building its problem on first use.
type plannersFunc func(kind string, instance []byte) (*core.Planner, error)
