package main

// Sets of runs. A run is always one process measuring one workload in
// one pass: the field memo, the NTT plan tables and the resident-set
// high-water mark are process-wide, so workloads sharing a process would
// measure each other. A set starts one child process per run, in the
// order given, one at a time.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// setResult holds a set's metrics by workload and pass.
type setResult map[string]map[int]contractLine

// runSet runs the named workloads in order, each in the given passes
// (0 untraced, 1 traced), and prints one table per pass.
func runSet(h header, names []string, passes []int, outDir string) (setResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := make(setResult)
	for _, name := range names {
		set[name] = make(map[int]contractLine)
		for _, pass := range passes {
			cmd := exec.Command(self,
				"-workload", name, "-seed", strconv.FormatInt(h.Seed, 10),
				"-seconds", strconv.FormatFloat(h.Seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(pass), "-out", outDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				return nil, err
			}
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			last, copyErr := echoLines(stdout, os.Stdout)
			if err := cmd.Wait(); err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", name, pass, err)
			}
			if copyErr != nil {
				return nil, copyErr
			}
			var line contractLine
			if err := json.Unmarshal([]byte(last), &line); err != nil {
				return nil, fmt.Errorf("%s pass %d: last line is not a result: %w", name, pass, err)
			}
			if !line.Correct {
				return nil, fmt.Errorf("%s pass %d: %d of %d ops failed", name, pass, line.Failed, line.Attempted)
			}
			set[name][pass] = line
		}
	}
	for _, pass := range passes {
		defs, title := endToEnd, "end-to-end metrics (untraced pass)"
		if pass == 1 {
			defs, title = perLayer, "per-layer metrics (traced pass)"
		}
		fmt.Printf("\n%s\n%-28s %-6s", title, "metric", "unit")
		for _, name := range names {
			fmt.Printf(" %13s", name)
		}
		fmt.Println()
		for _, d := range defs {
			fmt.Printf("%-28s %-6s", d.Name, d.Unit)
			for _, name := range names {
				fmt.Printf(" %13.6g", set[name][pass].Metrics[d.Name].Value)
			}
			fmt.Println()
		}
	}
	return set, nil
}

// echoLines copies r to w line by line and returns the last line.
func echoLines(r io.Reader, w io.Writer) (string, error) {
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // the result line of a traced run is long
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(w, last)
	}
	return last, sc.Err()
}

// runAA runs the full untraced set twice — the second time in reverse
// order — and compares the two, metric by metric, with the metric's own
// bound. Both sets measure the same code on the same instances, so a
// difference beyond the bound is noise the bound cannot tell from a
// regression, and the command fails.
func runAA(h header, outDir string) error {
	names := workloadNames()
	first, err := runSet(h, names, []int{0}, outDir)
	if err != nil {
		return err
	}
	reversed := slices.Clone(names)
	slices.Reverse(reversed)
	second, err := runSet(h, reversed, []int{0}, outDir)
	if err != nil {
		return err
	}
	fmt.Printf("\nA/A: second set against first, as a share of the first\n%-20s %-14s %12s %12s %9s %7s\n",
		"metric", "workload", "first", "second", "worse by", "bound")
	exceeded := 0
	for _, d := range endToEnd {
		for _, name := range names {
			a, b := first[name][0].Metrics[d.Name].Value, second[name][0].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound || -worse > d.Bound {
				verdict = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-20s %-14s %12.6g %12.6g %+8.1f%% %6.0f%%%s\n", d.Name, name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("A/A: %d metric × workload pairs differ by more than their bound", exceeded)
	}
	return nil
}
