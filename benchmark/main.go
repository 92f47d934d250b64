// Command benchmark is this repository's one benchmark: five closed-loop
// workloads, end-to-end metrics from an untraced pass and per-layer
// metrics plus a time budget from a traced pass. See README.md.
//
//	go run ./benchmark -workload all -seed 1      every workload, both passes
//	go run ./benchmark -workload eval_bound       one workload, untraced
//	go run ./benchmark -workload eval_bound -trace 1
//	go run ./benchmark -aa                        the full set twice, compared
//
// A single-workload run prints, as the last line of its standard output,
// the JSON object BENCHMARK.json's contract asks for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"camelot/internal/par"
)

// runSeconds is the length of the timed window, frozen in BENCHMARK.json
// as run_seconds.
const runSeconds = 18

// header identifies what was measured and where, so that two outputs can
// be told to come from the same host and the same code before they are
// compared.
type header struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newHeader(seed int64, seconds float64) header {
	h := header{
		Commit: "unknown", Go: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

func (h header) print() {
	fmt.Printf("# commit %s dirty=%v\n# %s, %s, nproc=%d GOMAXPROCS=%d\n# seed=%d seconds=%g\n",
		h.Commit, h.Dirty, h.Go, h.CPU, h.NProc, h.GOMAXPROCS, h.Seed, h.Seconds)
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated instances")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		aa      = flag.Bool("aa", false, "run the full set twice and compare the two with each metric's bound")
		outDir  = flag.String("out", "benchmark/out", "directory for result and span files (empty: write none)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// GOMAXPROCS = min(nproc, 4): wider hosts must not change the load shape.
	setParallelism(min(runtime.NumCPU(), 4))
	h := newHeader(*seed, *seconds)

	var err error
	switch {
	case *aa:
		err = runAA(h, *outDir)
	case *name == "all":
		_, err = runSet(h, workloadNames(), []int{0, 1}, *outDir)
	default:
		err = runOne(h, *name, *trace == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// setParallelism fixes GOMAXPROCS and the helper pool of internal/par,
// which sized itself from the machine before main ran.
func setParallelism(n int) {
	runtime.GOMAXPROCS(n)
	par.SetParallelism(n)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one pass of one workload in this process.
func runOne(h header, name string, trace bool, outDir string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	h.print()
	cfg := runConfig{
		workload: w, seed: h.Seed, window: time.Duration(h.Seconds * float64(time.Second)),
		trace: trace, setups: 3, settingUp: 2 * time.Second, warmups: 3, reps: 8, verifying: 2 * time.Second,
	}
	if trace {
		cfg.setups, cfg.settingUp = 1, 0 // setup_s is an end-to-end metric
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		return err
	}
	printResult(res)
	if outDir != "" {
		if err := writeFiles(outDir, h, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(contractLine{
		Correct: res.Failed == 0 && res.Attempted > 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printResult(res *runResult) {
	pass := "untraced"
	defs := endToEnd
	if res.Trace {
		pass, defs = "traced", perLayer
	}
	fmt.Printf("workload %s (%s pass): attempted=%d succeeded=%d failed=%d fail_ratio=%g\n",
		res.Workload, pass, res.Attempted, res.Attempted-res.Failed, res.Failed,
		float64(res.Failed)/float64(res.Attempted))
	fmt.Printf("  %d latency samples, %d beyond p90\n", res.Samples, samplesBeyond(res.Samples, 90))
	fmt.Printf("  host: kernel %.4g ms (reference %.4g ms), median latency as measured %.6g ms\n", res.KernelMs, kernelRefMs, res.MeasuredP50Ms)
	for _, f := range res.Failures {
		fmt.Println("  FAILED", f)
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("  %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if len(res.Budget) > 0 {
		rows := make([]string, 0, len(res.Budget))
		for row := range res.Budget {
			rows = append(rows, row)
		}
		sort.Slice(rows, func(i, j int) bool { return res.Budget[rows[i]] > res.Budget[rows[j]] })
		fmt.Println("  budget (share of op wall):")
		for _, row := range rows {
			fmt.Printf("    %-26s %6.1f%%\n", row, 100*res.Budget[row])
		}
	}
}

// writeFiles stores a run's result, and a traced run's spans, as JSON.
func writeFiles(dir string, h header, res *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	write := func(name string, v any) error {
		data, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
	}
	if err := write(fmt.Sprintf("%s.%s.json", res.Workload, pass), struct {
		Header header     `json:"header"`
		Result *runResult `json:"result"`
	}{h, res}); err != nil {
		return err
	}
	if res.Trace {
		return write(res.Workload+".spans.json", res.spans)
	}
	return nil
}
