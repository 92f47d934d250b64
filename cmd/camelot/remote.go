package main

// The coordinate and node subcommands: one Camelot run across real OS
// processes. `coordinate` parses a workload spec, binds the control
// listener, and drives the engine with the coordinator transport —
// every point range is shipped to whatever worker daemons join;
// `node` is that daemon. The same binary serves both roles, so the
// workload catalog (camelot.Kinds) is identical on
// each side and the proof is bit-identical to an in-process run.
//
//	camelot coordinate -spec "triangles n=24 p=0.3 seed=7" -listen 127.0.0.1:9000 -workers 2 -secret s
//	camelot node -join 127.0.0.1:9000 -secret s
//
// `coordinate -local` runs the same spec in-process instead — the
// reference mode deployments diff their proofs against:
//
//	camelot coordinate -spec "triangles n=24 p=0.3 seed=7" -local -proofout proof.bin

import (
	"context"
	"flag"
	"fmt"
	"net"
	"time"

	"camelot"
)

// runCoordinate is the coordinate subcommand body.
func runCoordinate(ctx context.Context, rest []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	spec := fs.String("spec", "", "workload spec `kind key=value ...` (required; the jobs manifest grammar)")
	local := fs.Bool("local", false, "run the workload in-process instead of serving workers (reference mode)")
	workers := fs.Int("workers", 1, "joined workers the initial round waits for")
	secret := fs.String("secret", "", "shared cluster secret enabling per-frame authentication (must match the workers')")
	joinTimeout := fs.Duration("jointimeout", 30*time.Second, "how long to wait for -workers workers to join")
	proofOut := fs.String("proofout", "", "write the marshalled proof to this file")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *spec == "" {
		return fmt.Errorf("coordinate: -spec \"kind key=value ...\" is required")
	}
	if *local == (cf.listenAddr != "") {
		return fmt.Errorf("coordinate: exactly one of -local or -listen <addr> picks where the workload runs")
	}
	if *workers < 1 {
		return fmt.Errorf("coordinate: -workers must be at least 1, got %d", *workers)
	}
	if *local {
		return runSpec(ctx, *spec, &cf, *proofOut)
	}
	// Remote mode: the coordinator is the transport, and the fault flags
	// travel in every manifest, applied by the worker acting as the node.
	listen := cf.listenAddr
	cf.listenAddr = "" // consumed by the coordinator, not the TCP transport options
	if err := cf.validate(); err != nil {
		return err
	}
	co, err := camelot.NewCoordinator(cf.nodes, camelot.CoordinatorConfig{
		Workload:    *spec,
		ListenAddr:  listen,
		Secret:      []byte(*secret),
		MinWorkers:  *workers,
		JoinTimeout: *joinTimeout,
	})
	if err != nil {
		return err
	}
	defer co.Close()
	// Announced before the run starts, so process managers (and the
	// multiproc example) can parse the bound address and launch workers.
	fmt.Printf("coordinator listening on %s\n", co.Addr())
	proof, rep, err := cf.submit(ctx, co.Workload().Problem, co.AsTransport())
	if err != nil {
		return err
	}
	return finish(co.Workload(), proof, rep, *proofOut)
}

// runNode is the node subcommand body: the worker daemon.
func runNode(ctx context.Context, rest []string) error {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	join := fs.String("join", "", "coordinator host:port to join (required)")
	secret := fs.String("secret", "", "shared cluster secret (must match the coordinator's)")
	failOwner := fs.Int("fail-owner", 0, "crash when a round-0 assignment names this logical node (fault-injection knob; 0 = off)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *join == "" {
		return fmt.Errorf("node: -join <host:port> is required")
	}
	if _, _, err := net.SplitHostPort(*join); err != nil {
		return fmt.Errorf("node: -join %q is not a host:port address", *join)
	}
	if *failOwner < 0 {
		return fmt.Errorf("node: -fail-owner must be >= 0, got %d", *failOwner)
	}
	if err := camelot.ServeNode(ctx, camelot.NodeConfig{
		Join:      *join,
		Secret:    []byte(*secret),
		FailOwner: *failOwner,
	}); err != nil {
		return err
	}
	fmt.Println("node: run complete")
	return nil
}
