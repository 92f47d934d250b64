// Multiproc: Camelot as real operating-system processes. This example
// is the deployment acceptance harness (CI runs it on three seeds): it
// builds the camelot binary, then proves the multi-process claim three
// ways against one workload spec —
//
//  1. reference: `coordinate -local` runs the workload in-process and
//     writes the proof;
//  2. deployment: `coordinate -listen` serves the control protocol
//     while two `camelot node` child processes evaluate every point
//     range, with per-frame HMAC authentication on, and the proof must
//     be bit-identical to the reference;
//  3. churn: three workers all armed with `-fail-owner 1` — whichever
//     one draws logical node 1 dies mid-run, the quorum gather absorbs
//     the silence as an erasure, a repair round re-assigns the lost
//     range to a survivor, and the healed proof is still bit-identical.
//
// Pass -race to build the instrumented binary (CI does), -seed to vary
// the workload.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	seed := flag.Int("seed", 7, "workload seed")
	race := flag.Bool("race", false, "build the camelot binary with the race detector")
	flag.Parse()
	log.SetFlags(0)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	dir, err := os.MkdirTemp("", "camelot-multiproc-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "camelot")
	buildArgs := []string{"build"}
	if *race {
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "-o", bin, "./cmd/camelot")
	if out, err := exec.CommandContext(ctx, "go", buildArgs...).CombinedOutput(); err != nil {
		log.Fatalf("building camelot binary: %v\n%s", err, out)
	}

	spec := fmt.Sprintf("triangles n=24 p=0.3 seed=%d", *seed)
	const secret = "round-table"
	common := []string{"-nodes", "3", "-trials", "1"}

	// 1. Reference proof, in-process.
	refPath := filepath.Join(dir, "ref.bin")
	local := exec.CommandContext(ctx, bin,
		append([]string{"coordinate", "-spec", spec, "-local", "-proofout", refPath}, common...)...)
	if out, err := local.CombinedOutput(); err != nil {
		log.Fatalf("local reference run: %v\n%s", err, out)
	}
	ref := mustRead(refPath)
	fmt.Printf("reference proof: %d bytes (in-process run)\n", len(ref))

	// 2. Two worker processes serve the whole run, authenticated.
	remotePath := filepath.Join(dir, "remote.bin")
	out := runDeployment(ctx, bin, deployment{
		coordArgs: append([]string{"coordinate", "-spec", spec,
			"-listen", "127.0.0.1:0", "-workers", "2", "-secret", secret,
			"-proofout", remotePath}, common...),
		worker:             []string{"node", "-secret", secret},
		workers:            2,
		wantWorkerFailures: 0,
	})
	if remote := mustRead(remotePath); !bytes.Equal(remote, ref) {
		log.Fatalf("multi-process proof differs from in-process proof (%d vs %d bytes)", len(remote), len(ref))
	}
	_ = out
	fmt.Println("deployment proof: bit-identical across 2 worker processes")

	// 3. Churn: the worker that draws node 1 dies; repair heals the run.
	healedPath := filepath.Join(dir, "healed.bin")
	out = runDeployment(ctx, bin, deployment{
		coordArgs: append([]string{"coordinate", "-spec", spec,
			"-listen", "127.0.0.1:0", "-workers", "3", "-secret", secret,
			"-erasures", "1", "-grace", "750ms", "-repair", "2",
			"-proofout", healedPath}, common...),
		worker:             []string{"node", "-secret", secret, "-fail-owner", "1"},
		workers:            3,
		wantWorkerFailures: 1,
	})
	if !strings.Contains(out, "repair") {
		log.Fatalf("churn run never reported a repair round:\n%s", out)
	}
	if healed := mustRead(healedPath); !bytes.Equal(healed, ref) {
		log.Fatalf("healed proof differs from in-process proof (%d vs %d bytes)", len(healed), len(ref))
	}
	fmt.Println("churn proof: worker killed mid-run, repair round healed it, still bit-identical")
}

// deployment is one coordinator-plus-workers scenario: workers worker
// processes, each started with the arguments worker.
type deployment struct {
	coordArgs []string
	worker    []string
	workers   int
	// wantWorkerFailures is how many worker processes must exit
	// non-zero (the -fail-owner victim); any other count is a bug.
	wantWorkerFailures int
}

// runDeployment launches the coordinator, parses its announced address,
// joins the worker processes, and waits for everything. Returns the
// coordinator's full output.
func runDeployment(ctx context.Context, bin string, d deployment) string {
	coord := exec.CommandContext(ctx, bin, d.coordArgs...)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	coord.Stderr = coord.Stdout
	if err := coord.Start(); err != nil {
		log.Fatalf("starting coordinator: %v", err)
	}

	// The first line announces the bound address; everything after is
	// the run report, drained concurrently so the pipe never blocks.
	sc := bufio.NewScanner(stdout)
	var addr string
	var buf bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line + "\n")
		if a, ok := strings.CutPrefix(line, "coordinator listening on "); ok {
			addr = strings.TrimSpace(a)
			break
		}
	}
	if addr == "" {
		coord.Wait()
		log.Fatalf("coordinator never announced its address:\n%s", buf.String())
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(&buf, stdout)
	}()

	type workerExit struct {
		err error
		out []byte
	}
	args := append(append([]string(nil), d.worker...), "-join", addr)
	exits := make(chan workerExit, d.workers)
	for range d.workers {
		go func() {
			w := exec.CommandContext(ctx, bin, args...)
			out, err := w.CombinedOutput()
			exits <- workerExit{err: err, out: out}
		}()
	}

	failures := 0
	for range d.workers {
		e := <-exits
		if e.err != nil {
			failures++
			if !bytes.Contains(e.out, []byte("injected worker failure")) {
				log.Fatalf("worker %q failed for the wrong reason: %v\n%s", strings.Join(args, " "), e.err, e.out)
			}
		}
	}
	<-drained
	if err := coord.Wait(); err != nil {
		log.Fatalf("coordinator run: %v\n%s", err, buf.String())
	}
	if failures != d.wantWorkerFailures {
		log.Fatalf("%d worker process(es) failed, want %d\n%s", failures, d.wantWorkerFailures, buf.String())
	}
	return buf.String()
}

func mustRead(path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	return raw
}
