package main

// The serve subcommand: a long-lived proof service over one cluster.
// Every common flag reaches the service's runs: the cluster-scoped ones
// (nodes, parallelism, transport) build the cluster, the run-scoped ones
// (fault tolerance, trials, seed, erasure/grace/repair budgets, the
// adversaries) are the options of every preparation. Service policy —
// admission bounds, per-tenant contracts — comes from the serve-specific
// flags. See the Server type in the root package for the endpoint
// semantics.

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

// serveFlags are the serve subcommand's flags: the common ones plus the
// service policy.
type serveFlags struct {
	commonFlags
	addr             string
	queue, perTenant int
	tenants          string
	retryAfter       time.Duration
}

func (sf *serveFlags) register(fs *flag.FlagSet) {
	sf.commonFlags.register(fs)
	fs.StringVar(&sf.addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	fs.IntVar(&sf.queue, "queue", 16, "max proofs in preparation across all tenants (further submissions get 429)")
	fs.IntVar(&sf.perTenant, "tenant-inflight", 4, "default per-tenant in-flight preparation cap")
	fs.StringVar(&sf.tenants, "tenants", "", "explicit tenant contracts as name=maxinflight:priority, comma-separated (e.g. alice=8:3,bob=2:1)")
	fs.DurationVar(&sf.retryAfter, "retry-after", time.Second, "backoff hint attached to 429 refusals")
}

// config resolves the flags into the cluster's options and the service
// configuration: the run scope of the common flags becomes the options
// of every preparation.
func (sf *serveFlags) config() ([]camelot.ClusterOption, camelot.ServerConfig, error) {
	run, cluster, err := sf.splitOptions()
	if err != nil {
		return nil, camelot.ServerConfig{}, err
	}
	contracts, err := parseTenantContracts(sf.tenants)
	if err != nil {
		return nil, camelot.ServerConfig{}, err
	}
	return cluster, camelot.ServerConfig{
		FaultTolerance:     sf.faults,
		Run:                run,
		MaxQueueDepth:      sf.queue,
		DefaultMaxInFlight: sf.perTenant,
		RetryAfter:         sf.retryAfter,
		Tenants:            contracts,
	}, nil
}

func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var sf serveFlags
	sf.register(fs)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "camelot serve: an HTTP proof service over one cluster; every common flag (-faults, -trials, -erasures, -grace, -repair, -lie, ...) configures each preparation it runs")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	clusterOpts, cfg, err := sf.config()
	if err != nil {
		return err
	}

	cl := camelot.NewCluster(clusterOpts...)
	defer cl.Close()
	srv := camelot.NewServer(cl, cfg)
	defer srv.Close()

	ln, err := net.Listen("tcp", sf.addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("proof service listening on %s (nodes=%d faults=%d queue=%d)\n",
		ln.Addr(), sf.nodes, sf.faults, sf.queue)
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
