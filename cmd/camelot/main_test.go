package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"camelot"
	"camelot/internal/core"
)

func TestRunSubcommands(t *testing.T) {
	cases := map[string][]string{
		"triangles":  {"triangles", "-n", "20", "-p", "0.3", "-nodes", "2", "-trials", "1"},
		"cliques":    {"cliques", "-n", "7", "-k", "6", "-p", "0.8", "-nodes", "2"},
		"chromatic":  {"chromatic", "-n", "7", "-p", "0.4", "-nodes", "2"},
		"tutte":      {"tutte", "-n", "5", "-edges", "6"},
		"cnfsat":     {"cnfsat", "-vars", "8", "-clauses", "10"},
		"permanent":  {"permanent", "-n", "6"},
		"hamilton":   {"hamilton", "-n", "7", "-p", "0.6"},
		"setcover":   {"setcover", "-n", "8", "-sets", "10", "-t", "3"},
		"ov":         {"ov", "-n", "32", "-t", "8"},
		"conv3sum":   {"conv3sum", "-n", "16", "-bits", "6"},
		"csp":        {"csp", "-n", "6", "-sigma", "2", "-m", "4"},
		"with-liar":  {"triangles", "-n", "16", "-p", "0.3", "-nodes", "4", "-faults", "40", "-lie", "1"},
		"with-crash": {"triangles", "-n", "16", "-p", "0.3", "-nodes", "4", "-faults", "40", "-dropnodes", "2", "-erasures", "1"},
		"coordinate-local": {"coordinate", "-spec", "triangles n=16 p=0.3 seed=2", "-local",
			"-nodes", "2", "-trials", "1"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"no args":       nil,
		"unknown":       {"frobnicate"},
		"bad lie list":  {"triangles", "-lie", "x,y"},
		"bad clique k":  {"cliques", "-k", "5"},
		"beyond radius": {"triangles", "-n", "16", "-p", "0.3", "-nodes", "2", "-faults", "0", "-lie", "0"},
		"all byzantine": {"triangles", "-n", "12", "-nodes", "1", "-lie", "0"},
		// A node has one role in the fault record, and only nodes the run
		// has can be faulty (node 9 used to be reported byzantine).
		"two adversaries":  {"triangles", "-n", "16", "-p", "0.3", "-nodes", "4", "-faults", "40", "-lie", "1", "-equivocate", "1"},
		"liar beyond K":    {"triangles", "-n", "16", "-p", "0.3", "-nodes", "4", "-faults", "40", "-lie", "9"},
		"dropped beyond K": {"triangles", "-n", "16", "-p", "0.3", "-nodes", "4", "-faults", "40", "-dropnodes", "9", "-erasures", "1"},
		"oversized csp":    {"csp", "-n", "5"},
		"tiny permanent":   {"permanent", "-n", "1"},

		// Flag syntax (commonFlags.validate) and cross-option rules (the
		// library's ErrInvalidOptions): each contradictory combination
		// dies with one line.
		"repair sans erasures": {"triangles", "-repair", "1"},
		"grace sans erasures":  {"triangles", "-grace", "1s"},
		"rate beyond 1":        {"triangles", "-droprate", "1.5", "-erasures", "1"},
		"negative rate":        {"triangles", "-droprate", "-0.1", "-erasures", "1"},
		"malformed listen":     {"triangles", "-listen", "127.0.0.1"},
		"zero nodes":           {"triangles", "-nodes", "0"},
		"negative nodes":       {"triangles", "-nodes", "-2"},
		"negative faults":      {"triangles", "-faults", "-1"},
		"negative erasures":    {"triangles", "-erasures", "-1"},

		// coordinate/node flag contracts.
		"coordinate sans spec":    {"coordinate", "-local"},
		"coordinate no mode":      {"coordinate", "-spec", "triangles"},
		"coordinate both modes":   {"coordinate", "-spec", "triangles", "-local", "-listen", "127.0.0.1:0"},
		"coordinate bad spec":     {"coordinate", "-spec", "frobnicate n=3", "-local"},
		"coordinate lossy remote": {"coordinate", "-spec", "triangles", "-listen", "127.0.0.1:0", "-dropnodes", "9", "-erasures", "1"},
		"node sans join":          {"node"},
		"node bad join":           {"node", "-join", "not-an-address"},
		"node negative owner":     {"node", "-join", "127.0.0.1:9", "-fail-owner", "-1"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
	}
}

func TestRunJobsManifest(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "jobs.txt")
	if err := os.WriteFile(manifest, []byte(`
# mixed workload
triangles n=20 p=0.3 seed=7
permanent n=6 seed=2
cnfsat    vars=8 clauses=10 seed=3
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"jobs", "-manifest", manifest, "-nodes", "2", "-trials", "1", "-poll", "0"}); err != nil {
		t.Fatalf("jobs run: %v", err)
	}
}

func TestRunJobsManifestErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string][]string{
		"no manifest":   {"jobs"},
		"missing file":  {"jobs", "-manifest", filepath.Join(dir, "absent.txt")},
		"empty":         {"jobs", "-manifest", write("empty.txt", "# nothing\n")},
		"unknown kind":  {"jobs", "-manifest", write("kind.txt", "frobnicate n=3\n")},
		"bad field":     {"jobs", "-manifest", write("field.txt", "triangles n=x\n")},
		"not key=value": {"jobs", "-manifest", write("kv.txt", "triangles n\n")},
		"bad clique k":  {"jobs", "-manifest", write("k.txt", "cliques n=7 k=5\n")},
		// The library's option check reaches manifests too.
		"repair sans erasures": {"jobs", "-manifest", write("ok.txt", "permanent n=4\n"), "-repair", "1", "-poll", "0"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
	}
}

// Every kind's flag form and spec form are one workload: with no flags
// the subcommand is the bare kind name (the CLI has no defaults of its
// own to drift), and spelled-out flags are the spelled-out spec, with
// the same canonical line and the same proof-cache digest.
func TestKindFlagsAndSpecAgree(t *testing.T) {
	for _, k := range camelot.Kinds() {
		for _, form := range []struct {
			args []string
			spec string
		}{
			{nil, k.Name},
			{[]string{"-seed", "5"}, k.Name + " seed=5"},
		} {
			args, spec := form.args, form.spec
			for _, f := range k.Fields {
				if form.args != nil {
					args = append(args, "-"+f.Name, f.Default)
					spec += " " + f.Name + "=" + f.Default
				}
			}
			line, _, err := kindSpec(k, args)
			if err != nil {
				t.Fatalf("%s %v: %v", k.Name, args, err)
			}
			fromFlags, err := camelot.ParseWorkload(line)
			if err != nil {
				t.Fatalf("%s %v: spec line %q: %v", k.Name, args, line, err)
			}
			fromSpec, err := camelot.ParseWorkload(spec)
			if err != nil {
				t.Fatalf("ParseWorkload(%q): %v", spec, err)
			}
			if fromFlags.Canonical != fromSpec.Canonical || fromFlags.Digest(2) != fromSpec.Digest(2) {
				t.Errorf("%s %v resolves to %q, spec %q to %q", k.Name, args, fromFlags.Canonical, spec, fromSpec.Canonical)
			}
		}
	}
}

// The package comment's usage block is checked against the catalog:
// every kind has a line, every line of a kind names only flags that
// exist (its fields or the common ones), and every such line runs to a
// verified proof exactly as written — the adversary and lossy-network
// lines are calibrated to their instance's degree, which is how two of
// them went stale unnoticed while only their flags were checked.
func TestUsageCommentMatchesCatalog(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	common := map[string]bool{}
	fs := flag.NewFlagSet("common", flag.ContinueOnError)
	new(commonFlags).register(fs)
	fs.VisitAll(func(f *flag.Flag) { common[f.Name] = true })
	flagRe := regexp.MustCompile(` -([a-z]+)`)
	for _, k := range camelot.Kinds() {
		lines := regexp.MustCompile(`(?m)^//\tcamelot `+k.Name+` .*$`).FindAllString(doc, -1)
		if len(lines) == 0 {
			t.Errorf("package comment has no usage line for %q", k.Name)
		}
		known := map[string]bool{}
		for _, f := range k.Fields {
			known[f.Name] = true
		}
		for _, line := range lines {
			for _, m := range flagRe.FindAllStringSubmatch(line, -1) {
				if !known[m[1]] && !common[m[1]] {
					t.Errorf("usage line %q: kind %s has no flag -%s", line, k.Name, m[1])
				}
			}
			if err := run(strings.Fields(line)[2:]); err != nil {
				t.Errorf("usage line %q fails as written: %v", line, err)
			}
		}
	}
}

// The CLI has no "-dropnodes needs -erasures" rule: a strict run that
// loses a broadcast is the library's to end — typed, naming the node — and
// it must come back well inside the deadline rather than hang.
func TestStrictDropRefusedPromptly(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run([]string{"triangles", "-n", "16", "-nodes", "4", "-dropnodes", "1"}) }()
	select {
	case err := <-done:
		if !errors.Is(err, camelot.ErrDeliveryFault) || !strings.Contains(err.Error(), "node 1") {
			t.Fatalf("err = %v, want ErrDeliveryFault naming node 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("strict run losing a broadcast still hangs")
	}
}

// The serve subcommand's common flags are the options of every
// preparation: `serve -grace 200ms -lie 1` used to parse both and run
// with the default grace and no adversary.
func TestServeFlagsReachTheRun(t *testing.T) {
	config := func(args ...string) ([]camelot.ClusterOption, camelot.ServerConfig) {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		var sf serveFlags
		sf.register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		clusterOpts, cfg, err := sf.config()
		if err != nil {
			t.Fatal(err)
		}
		return clusterOpts, cfg
	}
	_, cfg := config("-trials", "3", "-erasures", "1", "-grace", "200ms", "-repair", "2", "-lie", "2")
	var run core.Options
	for _, o := range cfg.Run {
		o(&run)
	}
	if run.MaxErasures != 1 || run.GatherGrace != 200*time.Millisecond || run.MaxRepairRounds != 2 ||
		run.VerifyTrials != 3 || !slices.Equal(run.Adversary.CorruptNodes(), []int{2}) {
		t.Fatalf("serve flags resolve to %+v", run)
	}

	// End to end, on a strict run so that the liar's broadcast is always
	// among the gathered ones.
	clusterOpts, cfg := config("-nodes", "4", "-faults", "40", "-lie", "1")
	cl := camelot.NewCluster(clusterOpts...)
	defer cl.Close()
	srv := camelot.NewServer(cl, cfg)
	defer srv.Close()
	out, err := srv.Submit("tenant", "triangles n=16 p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := srv.Result(ctx, out.Digest); err != nil {
		t.Fatal(err)
	}
	if st, err := srv.Status(out.Digest); err != nil || st.Suspects != 1 {
		t.Fatalf("status: %d suspects, err %v; want the one lying node", st.Suspects, err)
	}
}
