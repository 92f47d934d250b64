// Command camelot runs Camelot computations from the command line: pick a
// problem subcommand, a workload size, a node count, and optionally a
// fault schedule, and it prepares, error-corrects, and verifies the
// proof, printing the framework report. The fault flags build one
// record (camelot.Adversary), applied by each faulty node to what it
// sends: -lie (the listed nodes send the same garbage to everyone),
// -equivocate (different garbage to each recipient) and the network
// flags below. A node id outside 0..nodes-1, a node in two roles or a
// rate outside 0..1 is refused as invalid options. A crashed node is a
// delivery fault, -dropnodes below.
//
// The problem subcommands are the kinds of the facade's catalog
// (camelot.Kinds): each kind's fields are its flags, with the same names
// and defaults as in a workload spec, so `camelot cliques -n 9` runs the
// spec "cliques n=9" (-seed is the spec's seed). tutte is the one
// subcommand of its own, because it prepares m+1 proofs, not one.
//
// Usage (a test runs every line of a catalog kind and checks its flags
// against the catalog):
//
//	camelot cliques   -n 8 -k 6 -nodes 8 -faults 200 -lie 2
//	camelot triangles -n 48 -p 0.2 -nodes 4
//	camelot chromatic -n 10 -p 0.4
//	camelot tutte     -n 6 -edges 8
//	camelot cnfsat    -vars 12 -clauses 20
//	camelot permanent -n 10
//	camelot hamilton  -n 9 -p 0.5
//	camelot setcover  -n 10 -sets 30 -t 4
//	camelot ov        -n 128 -t 16
//	camelot conv3sum  -n 64 -bits 10
//	camelot csp       -n 12 -sigma 2 -m 8
//
// The jobs subcommand runs a whole manifest of problems as concurrent
// jobs on one long-lived cluster (see jobs.go for the manifest format):
//
//	camelot jobs -manifest workload.txt -nodes 4
//
// The serve subcommand exposes the cluster as a multi-tenant HTTP proof
// service with a content-addressed proof cache, per-tenant quotas and
// priorities, and bounded admission (see serve.go and ARCHITECTURE.md
// "Proof service"). Every common flag reaches the service's runs, the
// adversaries and the erasure, grace and repair budgets included:
//
//	camelot serve -addr 127.0.0.1:8080 -nodes 4 -faults 2 -tenants alice=8:3,bob=2:1
//
// Every subcommand (jobs, serve and coordinate included) also takes network
// fault flags: -dropnodes/-droprate/-duprate/-delayrate/-maxdelay lose,
// repeat or hold the named nodes' broadcasts, seeded by -seed, on
// whatever carries them, and -erasures/-grace opt the run
// into the erasure-tolerant quorum gather that survives the losses
// (without -erasures a lost broadcast ends the run with a typed refusal
// naming the node). -repair N allows up to N self-healing gather rounds
// when the losses exceed even the erasure budget — surviving nodes
// recompute the missing ranges and the decode is retried:
//
//	camelot triangles -n 48 -nodes 8 -faults 11 -dropnodes 2 -erasures 1
//	camelot triangles -n 48 -nodes 8 -faults 1 -dropnodes 2,5 -erasures 2 -repair 1
//
// The -listen flag carries the share broadcasts over loopback sockets
// instead of the in-memory bus: the run's collector binds the address
// and its senders dial it. The network fault flags apply there too, so
// a chaos run can drop frames off a real TCP stream:
//
//	camelot triangles -n 48 -nodes 8 -listen 127.0.0.1:0
//	camelot triangles -n 20 -nodes 8 -faults 12 -listen 127.0.0.1:0 -dropnodes 2 -erasures 1
//
// The coordinate/node pair runs one workload across real OS processes:
// a coordinator serves point-range assignments over the control
// protocol and worker daemons evaluate them (see remote.go and
// ARCHITECTURE.md "Multi-process deployment"):
//
//	camelot coordinate -spec "triangles n=24 p=0.3 seed=7" -listen 127.0.0.1:9000 -workers 2 -secret s
//	camelot node -join 127.0.0.1:9000 -secret s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"camelot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "camelot: %v\n", err)
		os.Exit(1)
	}
}

// commonFlags holds the framework options shared by every subcommand.
type commonFlags struct {
	nodes, faults, trials int
	parallelism           int
	seed                  int64
	lie, equiv            string

	// Network faults (a seeded lossy network), in the same record.
	dropNodes                    string
	dropRate, dupRate, delayRate float64
	maxDelay                     time.Duration
	erasures                     int
	grace                        time.Duration
	repair                       int

	// Loopback socket transport (NodeShares frames over TCP).
	listenAddr string
}

func (cf *commonFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&cf.nodes, "nodes", 4, "number of compute nodes K")
	fs.IntVar(&cf.faults, "faults", 0, "fault tolerance f (codeword length e = d+1+2f)")
	fs.IntVar(&cf.trials, "trials", 2, "verification trials")
	fs.IntVar(&cf.parallelism, "parallelism", 0, "worker pool size driving the K nodes (0 = GOMAXPROCS)")
	fs.Int64Var(&cf.seed, "seed", 1, "randomness seed")
	fs.StringVar(&cf.lie, "lie", "", "comma-separated node ids that broadcast garbage")
	fs.StringVar(&cf.equiv, "equivocate", "", "comma-separated node ids that equivocate")
	fs.StringVar(&cf.dropNodes, "dropnodes", "", "comma-separated node ids whose broadcasts the network always loses")
	fs.Float64Var(&cf.dropRate, "droprate", 0, "probability a node's broadcast is dropped")
	fs.Float64Var(&cf.dupRate, "duprate", 0, "probability a broadcast is delivered twice")
	fs.Float64Var(&cf.delayRate, "delayrate", 0, "probability a broadcast is delayed")
	fs.DurationVar(&cf.maxDelay, "maxdelay", 20*time.Millisecond, "upper bound on injected delivery delay")
	fs.IntVar(&cf.erasures, "erasures", 0, "tolerate losing up to this many node broadcasts (decoded as erasures)")
	fs.DurationVar(&cf.grace, "grace", 0, "erasure-tolerant gather grace timer (0 = framework default)")
	fs.IntVar(&cf.repair, "repair", 0, "self-healing gather: retry decode failures with up to this many repair rounds (needs -erasures)")
	fs.StringVar(&cf.listenAddr, "listen", "", "carry share broadcasts over loopback TCP: the collector binds this address and senders dial it (use 127.0.0.1:0 for an ephemeral port)")
}

// validate checks what only a command line can get wrong: the syntax of
// its flags (a host:port address, a node count of zero where the
// library would read "default"). Whether the resulting options make
// sense together — fault ids, roles and rates included — is the
// library's judgement: camelot.ErrInvalidOptions, the same refusal a Go
// caller, a manifest or the proof service gets.
func (cf *commonFlags) validate() error {
	if cf.nodes == 0 {
		return fmt.Errorf("-nodes 0: a run needs at least one node")
	}
	if cf.listenAddr != "" {
		if _, _, err := net.SplitHostPort(cf.listenAddr); err != nil {
			return fmt.Errorf("-listen %q is not a host:port address (try 127.0.0.1:0 for an ephemeral port)", cf.listenAddr)
		}
	}
	return nil
}

// splitOptions resolves the flags into the session API's two scopes:
// cluster-scoped (nodes, pool width, transport) and run-scoped (faults,
// seed, trials, the fault record), which NewCluster and Submit take
// respectively.
func (cf *commonFlags) splitOptions() ([]camelot.RunOption, []camelot.ClusterOption, error) {
	if err := cf.validate(); err != nil {
		return nil, nil, err
	}
	cluster := []camelot.ClusterOption{
		camelot.WithNodes(cf.nodes),
		camelot.WithMaxParallelism(cf.parallelism),
	}
	run := []camelot.RunOption{
		camelot.WithFaultTolerance(cf.faults),
		camelot.WithSeed(cf.seed),
		camelot.WithVerifyTrials(cf.trials),
		camelot.WithMaxErasures(cf.erasures),
		camelot.WithGatherGrace(cf.grace),
		camelot.WithMaxRepairRounds(cf.repair),
	}
	parse := func(s string) ([]int, error) {
		if s == "" {
			return nil, nil
		}
		parts := strings.Split(s, ",")
		ids := make([]int, 0, len(parts))
		for _, p := range parts {
			id, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("bad node id %q", p)
			}
			ids = append(ids, id)
		}
		return ids, nil
	}
	if cf.listenAddr != "" {
		cluster = append(cluster, camelot.WithListenAddr(cf.listenAddr))
	}
	adv := camelot.Adversary{
		Seed:      uint64(cf.seed),
		DropRate:  cf.dropRate,
		DupRate:   cf.dupRate,
		DelayRate: cf.delayRate,
		MaxDelay:  cf.maxDelay,
	}
	for _, ids := range []struct {
		flag string
		dst  *[]int
	}{{cf.lie, &adv.Liars}, {cf.equiv, &adv.Equivocators}, {cf.dropNodes, &adv.DropNodes}} {
		var err error
		if *ids.dst, err = parse(ids.flag); err != nil {
			return nil, nil, err
		}
	}
	run = append(run, camelot.WithAdversary(adv))
	return run, cluster, nil
}

// submit runs p to completion on a cluster built from the flags, plus
// any extra cluster options.
func (cf *commonFlags) submit(ctx context.Context, p camelot.Problem, extra ...camelot.ClusterOption) (*camelot.Proof, *camelot.Report, error) {
	run, cluster, err := cf.splitOptions()
	if err != nil {
		return nil, nil, err
	}
	cl := camelot.NewCluster(append(cluster, extra...)...)
	defer cl.Close()
	return cl.Submit(ctx, p, run...).Wait(ctx)
}

// subcommand is one entry of the command line's dispatch table.
type subcommand struct {
	name string
	run  func(ctx context.Context, rest []string) error
}

// subcommands is every catalog kind followed by the bespoke commands.
// tutte is among the latter because it is m+1 proofs, not one.
func subcommands() []subcommand {
	var subs []subcommand
	for _, k := range camelot.Kinds() {
		subs = append(subs, subcommand{k.Name, func(ctx context.Context, rest []string) error {
			spec, cf, err := kindSpec(k, rest)
			if err != nil {
				return err
			}
			return runSpec(ctx, spec, cf, "")
		}})
	}
	return append(subs,
		subcommand{"tutte", runTutte}, subcommand{"jobs", runJobs}, subcommand{"serve", runServe},
		subcommand{"coordinate", runCoordinate}, subcommand{"node", runNode})
}

func run(args []string) error {
	var names []string
	for _, sub := range subcommands() {
		if len(args) > 0 && sub.name == args[0] {
			return sub.run(context.Background(), args[1:])
		}
		names = append(names, sub.name)
	}
	usage := "usage: camelot <" + strings.Join(names, "|") + "> [flags]"
	if len(args) == 0 {
		return errors.New(usage)
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)
}

// kindSpec is the front half of every catalog kind's subcommand: the
// kind's fields become flags and the flags become a spec line, which
// then runs like any other — so `camelot cliques -n 9` and the spec
// "cliques n=9" are the same workload with the same digest. -seed
// doubles as the instance seed.
func kindSpec(k camelot.Kind, rest []string) (string, *commonFlags, error) {
	fs := flag.NewFlagSet(k.Name, flag.ContinueOnError)
	cf := new(commonFlags)
	cf.register(fs)
	values := make([]*string, len(k.Fields))
	for i, f := range k.Fields {
		values[i] = fs.String(f.Name, f.Default, f.Help)
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "camelot %s: %s\n", k.Name, k.Help)
		fs.PrintDefaults()
	}
	if err := fs.Parse(rest); err != nil {
		return "", nil, err
	}
	spec := fmt.Sprintf("%s seed=%d", k.Name, cf.seed)
	for i, f := range k.Fields {
		spec += " " + f.Name + "=" + *values[i]
	}
	return spec, cf, nil
}

// runSpec runs one workload spec in-process and prints its answer and
// the framework report.
func runSpec(ctx context.Context, spec string, cf *commonFlags, proofOut string) error {
	w, err := camelot.ParseWorkload(spec)
	if err != nil {
		return err
	}
	proof, rep, err := cf.submit(ctx, w.Problem)
	if err != nil {
		return err
	}
	return finish(w, proof, rep, proofOut)
}

// finish prints a run's answer, the framework report, and optionally
// writes the marshalled proof — identical output for in-process and
// multi-process runs, so the two are diffable.
func finish(w *camelot.Workload, proof *camelot.Proof, rep *camelot.Report, proofOut string) error {
	answer, err := w.Answer(proof)
	if err != nil {
		return fmt.Errorf("recovering answer: %w", err)
	}
	fmt.Println(answer)
	printReport(rep)
	if proofOut != "" {
		raw, err := proof.MarshalBinary()
		if err != nil {
			return fmt.Errorf("marshalling proof: %w", err)
		}
		if err := os.WriteFile(proofOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("proof written to %s (%d bytes)\n", proofOut, len(raw))
	}
	return nil
}

// runTutte is the tutte subcommand body: one run per Fortuin–Kasteleyn
// line, so not a single workload spec.
func runTutte(ctx context.Context, rest []string) error {
	fs := flag.NewFlagSet("tutte", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	n := fs.Int("n", 6, "vertices")
	edges := fs.Int("edges", 8, "edge count (multigraph, drawn uniformly)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	run, cluster, err := cf.splitOptions()
	if err != nil {
		return err
	}
	var opts []camelot.Option
	for _, o := range cluster {
		opts = append(opts, o)
	}
	for _, o := range run {
		opts = append(opts, o)
	}
	mg := camelot.RandomMultigraph(*n, *edges, cf.seed)
	start := time.Now()
	res, err := camelot.TuttePolynomial(ctx, mg, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("Tutte polynomial recovered in %v over %d Fortuin–Kasteleyn lines\n",
		time.Since(start).Round(time.Millisecond), len(res.Reports))
	fmt.Printf("  spanning trees T(1,1) = %v\n", camelot.EvalTutte(res.T, 1, 1))
	fmt.Printf("  forests        T(2,1) = %v\n", camelot.EvalTutte(res.T, 2, 1))
	fmt.Printf("  2^m check      T(2,2) = %v\n", camelot.EvalTutte(res.T, 2, 2))
	printReport(res.Reports[0])
	return nil
}

func printReport(rep *camelot.Report) {
	fmt.Printf("  problem        %s\n", rep.Problem)
	fmt.Printf("  nodes          %d (byzantine: %v, identified: %v, undelivered: %v)\n",
		rep.Nodes, rep.ByzantineNodes, rep.SuspectNodes, rep.MissingNodes)
	if rep.RepairRounds > 0 {
		fmt.Printf("  repair         %d round(s), recovered nodes %v\n",
			rep.RepairRounds, rep.RepairedNodes)
	}
	fmt.Printf("  proof          degree %d, %d symbols over primes %v\n",
		rep.Degree, rep.ProofSymbols, rep.Primes)
	fmt.Printf("  codeword       %d points, tolerance %d, corrupted shares seen %d\n",
		rep.CodeLength, rep.FaultTolerance, rep.CorruptedShares)
	fmt.Printf("  compute        wall %v, max/node %v, total %v\n",
		rep.ComputeWall.Round(time.Microsecond),
		rep.MaxNodeCompute.Round(time.Microsecond),
		rep.TotalNodeCompute.Round(time.Microsecond))
	fmt.Printf("  decode         wall %v, %d distinct received word(s) decoded\n",
		rep.DecodeWall.Round(time.Microsecond), rep.Decodes)
	fmt.Printf("  verification   %d trial(s), %v each, accepted=%v\n",
		rep.VerifyTrials, rep.VerifyPerTrial.Round(time.Microsecond), rep.Verified)
}
