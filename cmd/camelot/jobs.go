package main

// The jobs subcommand: run a manifest of problems through one long-lived
// cluster — the service pattern the session API exists for. Each
// manifest line names a counting workload; all lines are submitted as
// concurrent jobs, progress is polled while they run, and a throughput
// summary closes the report.
//
//	camelot jobs -manifest workload.txt -nodes 4
//
// Manifest format: one job per line, `kind key=value ...` for any kind
// of the catalog (camelot.Kinds); blank lines and #-comments are
// ignored.
//
//	triangles n=32 p=0.3 seed=7
//	cliques   n=8 k=6 p=0.7 seed=1
//	permanent n=10 seed=2
//	cnfsat    vars=12 clauses=20 width=3 seed=3
//	hamilton  n=9 p=0.5 seed=4

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"camelot"
)

// parseManifest reads the job list. Each non-comment line is a
// workload spec in the facade's shared grammar (camelot.ParseWorkload)
// — the same one-line encoding the coordinate subcommand and the
// control protocol's Assign manifests use.
func parseManifest(path string) ([]*camelot.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var jobs []*camelot.Workload
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		w, err := camelot.ParseWorkload(line)
		if err != nil {
			return nil, fmt.Errorf("manifest line %d: %w", lineNo, err)
		}
		jobs = append(jobs, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("manifest %s holds no jobs", path)
	}
	return jobs, nil
}

// runJobs is the jobs subcommand body.
func runJobs(ctx context.Context, rest []string) error {
	fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	manifest := fs.String("manifest", "", "path to the job manifest (required)")
	poll := fs.Duration("poll", 200*time.Millisecond, "progress polling interval (0 disables progress output)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *manifest == "" {
		return fmt.Errorf("jobs: -manifest is required")
	}
	specs, err := parseManifest(*manifest)
	if err != nil {
		return err
	}
	runOpts, clusterOpts, err := cf.splitOptions()
	if err != nil {
		return err
	}

	cluster := camelot.NewCluster(clusterOpts...)
	defer cluster.Close()

	start := time.Now()
	jobs := make([]*camelot.Job, len(specs))
	for i, spec := range specs {
		jobs[i] = cluster.Submit(ctx, spec.Problem, runOpts...)
	}
	fmt.Printf("submitted %d jobs to one cluster (K=%d)\n", len(jobs), cf.nodes)

	if *poll > 0 {
		pollProgress(jobs, *poll)
	}

	var firstFailure error
	for i, job := range jobs {
		proof, rep, err := job.Wait(ctx)
		if err != nil {
			fmt.Printf("  [%2d] %-30s FAILED: %v\n", i, specs[i].Kind, err)
			if firstFailure == nil {
				firstFailure = fmt.Errorf("job %d (%s): %w", i, specs[i].Kind, err)
			}
			continue
		}
		count, err := specs[i].Problem.Count(proof)
		if err != nil {
			fmt.Printf("  [%2d] %-30s RECOVERY FAILED: %v\n", i, specs[i].Kind, err)
			if firstFailure == nil {
				firstFailure = fmt.Errorf("job %d (%s): recovering count: %w", i, specs[i].Kind, err)
			}
			continue
		}
		// The digest is the same content-address `camelot serve` caches
		// under, so a manifest run's proofs are findable in a service.
		fmt.Printf("  [%2d] %-30s count=%v  (%d proof symbols, suspects %v, digest %s)\n",
			i, rep.Problem, count, rep.ProofSymbols, rep.SuspectNodes, specs[i].Digest(cf.faults)[:12])
	}
	elapsed := time.Since(start)
	fmt.Printf("%d jobs in %v — %.2f jobs/sec\n",
		len(jobs), elapsed.Round(time.Millisecond), float64(len(jobs))/elapsed.Seconds())
	return firstFailure
}

// pollProgress prints a one-line status sweep until every job is done.
func pollProgress(jobs []*camelot.Job, interval time.Duration) {
	for {
		running := 0
		var points, total int
		for _, j := range jobs {
			st := j.Status()
			if st.State == camelot.JobRunning {
				running++
			}
			points += st.PointsDone
			total += st.PointsTotal
		}
		if running == 0 {
			return
		}
		fmt.Printf("  ... %d/%d jobs running, %d/%d evaluation units done\n",
			running, len(jobs), points, total)
		time.Sleep(interval)
	}
}
