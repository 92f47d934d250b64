package main

// The serve subcommand: a long-lived proof service over one cluster.
// Cluster geometry comes from the common flags (nodes, parallelism,
// transport, fault tolerance); service policy — admission bounds,
// per-tenant contracts — from the serve-specific ones. See the Server
// type in the root package for the endpoint semantics.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"camelot"
)

func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	queue := fs.Int("queue", 16, "max proofs in preparation across all tenants (further submissions get 429)")
	perTenant := fs.Int("tenant-inflight", 4, "default per-tenant in-flight preparation cap")
	tenants := fs.String("tenants", "", "explicit tenant contracts as name=maxinflight:priority, comma-separated (e.g. alice=8:3,bob=2:1)")
	retryAfter := fs.Duration("retry-after", time.Second, "backoff hint attached to 429 refusals")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// splitOptions validates the shared flags; serve uses the cluster
	// scope directly and folds the run scope into the service config.
	_, clusterOpts, err := cf.splitOptions()
	if err != nil {
		return err
	}
	contracts, err := parseTenantContracts(*tenants)
	if err != nil {
		return err
	}

	cl := camelot.NewCluster(clusterOpts...)
	defer cl.Close()
	srv := camelot.NewServer(cl, camelot.ServerConfig{
		FaultTolerance:     cf.faults,
		MaxErasures:        cf.erasures,
		MaxRepairRounds:    cf.repair,
		VerifyTrials:       cf.trials,
		VerifySeed:         cf.seed,
		MaxQueueDepth:      *queue,
		DefaultMaxInFlight: *perTenant,
		RetryAfter:         *retryAfter,
		Tenants:            contracts,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("proof service listening on %s (nodes=%d faults=%d queue=%d)\n",
		ln.Addr(), cf.nodes, cf.faults, *queue)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(shutdownCtx)
	}
}

// parseTenantContracts parses "name=maxinflight:priority,..." (priority
// optional, default 1).
func parseTenantContracts(s string) (map[string]camelot.TenantConfig, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]camelot.TenantConfig)
	for _, part := range strings.Split(s, ",") {
		name, contract, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant contract %q (want name=maxinflight:priority)", part)
		}
		capStr, prioStr, hasPrio := strings.Cut(contract, ":")
		maxInFlight, err := strconv.Atoi(capStr)
		if err != nil || maxInFlight < 1 {
			return nil, fmt.Errorf("bad tenant contract %q: maxinflight must be a positive integer", part)
		}
		prio := 1
		if hasPrio {
			if prio, err = strconv.Atoi(prioStr); err != nil || prio < 1 {
				return nil, fmt.Errorf("bad tenant contract %q: priority must be a positive integer", part)
			}
		}
		out[name] = camelot.TenantConfig{MaxInFlight: maxInFlight, Priority: prio}
	}
	return out, nil
}
