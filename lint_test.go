package camelot

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"camelot/internal/core"
)

// walkGoFiles calls visit with the slash path and the source of every
// Go file of the module — test files too unless noTests — leaving out
// the directory skipDir.
func walkGoFiles(t *testing.T, noTests bool, skipDir string, visit func(path string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".bench_build" || name == "testdata" || slash == skipDir {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || noTests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		visit(slash, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// linesContaining walks the Go files walkGoFiles does and returns
// "path:line: text" for every line that contains one of the needles.
func linesContaining(t *testing.T, needles []string, noTests bool, skipDir string) []string {
	t.Helper()
	var hits []string
	walkGoFiles(t, noTests, skipDir, func(path string, src []byte) {
		for i, line := range strings.Split(string(src), "\n") {
			for _, needle := range needles {
				if strings.Contains(line, needle) {
					hits = append(hits, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
				}
			}
		}
	})
	return hits
}

// TestTestCodeRatio is the ratchet on test code: the lines of every
// *_test.go file over the lines of the non-test Go outside benchmark/.
// The bound only ever tightens, like the With* ratchet: a change that
// folds copies of one property into a table lowers it, and one that
// adds tests without code pays for them elsewhere first.
func TestTestCodeRatio(t *testing.T) {
	const maxRatio = 1.037
	var tests, code int
	walkGoFiles(t, false, "", func(path string, src []byte) {
		lines := strings.Count(string(src), "\n")
		switch {
		case strings.HasSuffix(path, "_test.go"):
			tests += lines
		case !strings.HasPrefix(path, "benchmark/"):
			code += lines
		}
	})
	if ratio := float64(tests) / float64(code); ratio > maxRatio {
		t.Errorf("test Go is %d lines against %d of code, ratio %.3f, at most %.3f allowed", tests, code, ratio, maxRatio)
	}
}

// TestNoFieldLiteralsOutsideFF enforces the ff constructor contract: a
// Field assembled as a struct literal skips the precomputed reduction
// kernel and panics on first multiply, so every construction outside
// package ff must go through ff.New or ff.Must. This walk backs the
// guarantee the arithmetic layer documents (see ARCHITECTURE.md,
// "Arithmetic layer").
func TestNoFieldLiteralsOutsideFF(t *testing.T) {
	needle := "ff.Field" + "{" // split so this file does not match itself
	offenders := linesContaining(t, []string{needle}, false, "internal/ff")
	if len(offenders) > 0 {
		t.Fatalf("ff.Field struct literals outside package ff (use ff.New or ff.Must):\n  %s",
			strings.Join(offenders, "\n  "))
	}
}

// problemPackages are the problem-zoo packages whose per-prime state
// must live in compiled plans (internal/plan), not in ad-hoc lazy
// caches inside the problem type.
var problemPackages = []string{
	"internal/chromatic",
	"internal/cliques",
	"internal/cnfsat",
	"internal/conv3sum",
	"internal/csp",
	"internal/hamilton",
	"internal/orthvec",
	"internal/permanent",
	"internal/setcover",
	"internal/triangles",
	"internal/tutte",
}

// lockGrandfathered lists problem-package files still allowed to hold a
// sync.Once or sync.Mutex. Empty: every per-prime cache has moved to
// the plan layer. Do not add entries — compile per-prime state through
// plan.Compiler instead.
var lockGrandfathered = map[string]bool{}

// TestNoAdHocPlanCachesInProblems enforces the plan-layer contract: a
// problem package that memoizes per-prime state behind sync.Once or a
// sync.Mutex is rebuilding the planner's per-prime memo privately — a
// second compile-once mechanism, and a lock on the pool workers' hot
// path. Per-prime state belongs in
// Compile (plan.Compiler); cross-call coordination inside a plan is a
// design smell the equivalence tests cannot catch. sync.WaitGroup
// (fan-out joins) stays allowed.
func TestNoAdHocPlanCachesInProblems(t *testing.T) {
	var offenders []string
	for _, pkg := range problemPackages {
		entries, err := os.ReadDir(pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range entries {
			name := d.Name()
			if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := pkg + "/" + name
			if lockGrandfathered[path] {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if strings.Contains(line, "sync.Once") || strings.Contains(line, "sync.Mutex") {
					offenders = append(offenders, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
				}
			}
		}
	}
	if len(offenders) > 0 {
		t.Fatalf("ad-hoc lazy caches in problem packages (move per-prime state into plan.Compiler.Compile):\n  %s",
			strings.Join(offenders, "\n  "))
	}
}

// TestModulusFloorIsDeclaredOnce keeps the width policy one rule: every
// MinModulus in a problem package is a single return of
// crt.FloorModulus(<what the design needs>), or of another problem's
// MinModulus it wraps. A package that floors its own modulus (a max
// against a literal, a branch on size) forks the policy PrimesFor, the
// sizing pins and the documented soundness figure all assume.
func TestModulusFloorIsDeclaredOnce(t *testing.T) {
	found := 0
	for _, pkg := range problemPackages {
		pkgs, err := parser.ParseDir(token.NewFileSet(), pkg, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			for name, file := range p.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv == nil || fn.Name.Name != "MinModulus" {
						continue
					}
					found++
					if !returnsFloorModulus(fn.Body) {
						t.Errorf("%s: %s.MinModulus computes its own floor; return crt.FloorModulus(need)",
							filepath.ToSlash(name), recvName(fn))
					}
				}
			}
		}
	}
	if found < len(problemPackages) {
		t.Errorf("found %d MinModulus methods in %d problem packages", found, len(problemPackages))
	}
}

// returnsFloorModulus reports whether body is `return crt.FloorModulus(…)`
// or `return <x>.MinModulus()`.
func returnsFloorModulus(body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "crt" && sel.Sel.Name == "FloorModulus" {
		return true
	}
	return sel.Sel.Name == "MinModulus" && len(call.Args) == 0
}

func recvName(fn *ast.FuncDecl) string {
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// coreForbidden are the duplicates internal/core collapsed: a block
// seam that takes the prime per call (the legacy BatchProblem shape —
// block evaluation goes through plan.Compiler and a compiled plan.Plan)
// a per-run worker pool beside Pool (the retired scheduler.run), and the
// three shapes of asking a transport what it can do — Transport is the
// whole contract (Send, Gather, GatherQuorum, Close), the engine closes
// what it opened, and no gather ends its transport.
var coreForbidden = map[string]*regexp.Regexp{
	"second evaluation seam (compile a plan.Plan instead)":       regexp.MustCompile(`EvaluateBlock\(q uint64`),
	"second worker pool (run tasks on core.Pool instead)":        regexp.MustCompile(`func \([^)]*\) run\(ctx context\.Context, n int, task `),
	"gather capability probe (every Transport has GatherQuorum)": regexp.MustCompile(`\.\(QuorumGatherer\)`),
	"lifecycle capability probe (every Transport has Close)":     regexp.MustCompile(`\.\(interface\s*\{\s*Close\(\)\s*\}\)`),
	"gather that may end its transport (the engine calls Close)": regexp.MustCompile(`\bKeepOpen\b`),
}

// coreGrandfathered lists internal/core files still allowed to match
// coreForbidden. Empty. Do not add entries.
var coreGrandfathered = map[string]bool{}

// TestCoreKeepsOneOfEach keeps internal/core at one evaluation seam and
// one worker pool: every strategy added beside them is a path the
// golden proofs and the benchmark must cover twice.
func TestCoreKeepsOneOfEach(t *testing.T) {
	entries, err := os.ReadDir("internal/core")
	if err != nil {
		t.Fatal(err)
	}
	var offenders []string
	for _, d := range entries {
		name := d.Name()
		path := "internal/core/" + name
		if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || coreGrandfathered[path] {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for what, re := range coreForbidden {
				if re.MatchString(line) {
					offenders = append(offenders, fmt.Sprintf("%s:%d: %s: %s", path, i+1, what, strings.TrimSpace(line)))
				}
			}
		}
	}
	if len(offenders) > 0 {
		t.Fatalf("duplicate paths in internal/core:\n  %s", strings.Join(offenders, "\n  "))
	}
}

// retiredProducts are the pre-shifted Möller–Granlund forms of a product
// by a fixed field element. The pre-shifted operand was a bare uint64 that
// no type marked, and an unshifted one gave a wrong residue without an
// error. A multiplier reused across many products takes its ff.ShoupOf
// companion once and goes through ff.MulShoup; one that serves a product
// or two goes through ff.MulK. MulSumVecK, the permanent's row sweep on
// MulK, gave way to the Montgomery chain ff.MulSumVecMont.
var retiredProducts = map[string]string{
	"MulKS":         "ff.MulShoup with a ShoupOf companion, or ff.MulK",
	"MulVecKS":      "ff.MulVecShoup",
	"MulScaleVecKS": "ff.MulShoup, twice",
	"Kernel.Shift":  "ff.ShoupOf",
	"MulSumVecK":    "ff.MulSumVecMont",
}

// TestOneProductByAFixedElement keeps ff at one way to multiply many
// values by one element: it fails if any Go file of the module declares
// a function or method named in retiredProducts.
func TestOneProductByAFixedElement(t *testing.T) {
	var offenders []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".bench_build" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvName(fn) + "." + name
			}
			if use, retired := retiredProducts[name]; retired {
				offenders = append(offenders, fmt.Sprintf("%s: %s (use %s)", fset.Position(fn.Pos()), name, use))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Fatalf("retired products by a fixed element declared:\n  %s", strings.Join(offenders, "\n  "))
	}
}

// TestWireCodecsShareOneReader keeps the proof ('CML'), share ('CMS')
// and control ('CMC') decoders on frame.go's one bounded reader,
// core.Cursor: no reflection-driven binary.Read/binary.Write anywhere
// in non-test Go, and no hand-rolled word reads in the three codec
// files, where a second reader would carry its own length checks.
func TestWireCodecsShareOneReader(t *testing.T) {
	offenders := linesContaining(t, []string{"binary.Read(", "binary.Write("}, true, "")
	wordRead := regexp.MustCompile(`\.Uint(16|32|64)\(`)
	for _, path := range []string{"internal/core/encode.go", "internal/core/netcodec.go", "internal/ctrl/codec.go"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if wordRead.MatchString(line) {
				offenders = append(offenders, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
			}
		}
	}
	if len(offenders) > 0 {
		t.Fatalf("wire bytes read outside core.Cursor:\n  %s", strings.Join(offenders, "\n  "))
	}
}

// TestKindsAreDeclaredOnce is the catalog's half of "one of each": in
// packages camelot and cmd/camelot a kind's name may be spelled as a Go
// string literal — a switch case, a name list, a usage or error text —
// only in catalog.go. Everything else asks Kinds(). Comments are free
// (the doc tables are checked against the catalog by their own tests),
// as are test files, the spec lines of examples/ and the problem names
// of internal/*, none of which declares a kind.
func TestKindsAreDeclaredOnce(t *testing.T) {
	kinds := map[string]bool{}
	for _, k := range Kinds() {
		kinds[k.Name] = true
	}
	word := regexp.MustCompile(`[A-Za-z0-9]+`)
	var offenders []string
	for _, dir := range []string{".", "cmd/camelot"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range entries {
			name := d.Name()
			if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || dir == "." && name == "catalog.go" {
				continue
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if _, ok := n.(*ast.ImportSpec); ok {
					return false // an import path is not a name list
				}
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				text, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				for _, w := range word.FindAllString(text, -1) {
					if kinds[w] {
						offenders = append(offenders, fmt.Sprintf("%s: %s names kind %q", fset.Position(lit.Pos()), lit.Value, w))
					}
				}
				return true
			})
		}
	}
	if len(offenders) > 0 {
		t.Fatalf("kind names outside catalog.go (derive them from Kinds()):\n  %s", strings.Join(offenders, "\n  "))
	}
}

// TestHamiltonVerifierIsSeparate pins what keeps a kind's verifier apart
// from its compiled plan (ROADMAP item 3), by the names its functions'
// bodies mention. One row per package:
//   - hamilton's Evaluate, closedWalks and openWalks name nothing
//     declared in plan.go, so a bug in the strip kernel fails
//     verification instead of entering a proof;
//   - OV's and Hamming's Evaluate and the at they share with the plan
//     take a one-shot Lagrange basis, never the plan's run kernel;
//   - csp's and cliques' Evaluate and their per-point combination take
//     one-shot coefficient matrices, never the plan's tensor
//     point-evaluator;
//   - triangles' Evaluate and its block product atBasis never reach the
//     group tensor (its contraction, the rule that picks it, its orbit
//     build), so a wrong T is refused;
//   - permanent's Evaluate never reaches the compiled plan, its strip
//     kernel, ff's run kernel behind D(x) or the Montgomery products of
//     the strip sweep, so a bug in the Gray-code strip sweep fails
//     verification and the verifier's sweep keeps its own reduction, MulK;
//   - core's decode stage (decode.go and stageDecode) names neither the
//     fault record nor any of its fields: the decoder reads the words
//     that arrived and is never told which nodes were faulty;
//   - core's expectProof, the verifier's evaluations that run beside the
//     prepare stage, calls Problem.Evaluate and never the provers' plan
//     machinery or the gathered shares;
//   - a node's path (core's evaluateAndSend, ctrl's runAssign) names
//     nothing of the verifier's expectations, so no challenge point
//     reaches a prover.
func TestHamiltonVerifierIsSeparate(t *testing.T) {
	lagrangeRun := func(id string) bool { return strings.HasPrefix(id, "NewLagrangeEvaluator") || id == "Sweep" }
	pointEvaluator := func(id string) bool { return id == "NewPointEvaluator" }
	groupTensor := func(id string) bool {
		return slices.Contains([]string{"Trilinear", "tensorPlan", "groupTensor", "newGroupTensor",
			"orbitTable", "orbitTables", "orbitsFor", "newOrbitTable", "orbitWork", "orbitCount", "rowTable"}, id)
	}
	permanentPlan := func(id string) bool {
		return slices.Contains([]string{"compiled", "Compile", "EvaluateBlock", "evaluateStrip",
			"NewLagrangeEvaluatorZeroBased", "BitSweepBlock", "MulMont", "MulSumVecMont", "MontOf"}, id)
	}
	prover := func(id string) bool {
		return slices.Contains([]string{"Planner", "NewPlanner", "planner", "Compile", "EvaluateBlock", "shares"}, id)
	}
	expectations := func(id string) bool {
		return slices.Contains([]string{"expect", "expectations", "expectProof", "startExpect", "pendingExpect", "challenge", "checkProof"}, id)
	}
	faultRecord := func(id string) bool {
		_, field := reflect.TypeOf(core.Adversary{}).FieldByName(id)
		_, method := reflect.TypeOf(core.Adversary{}).MethodByName(id)
		return id == "Adversary" || field || method
	}
	for _, row := range []struct {
		dir      string
		verifier []string
		// found is how many declarations the verifier names have.
		found int
		// forbidden is nil where the row forbids every name plan.go declares.
		forbidden func(id string) bool
	}{
		{"internal/hamilton", []string{"Evaluate", "closedWalks", "openWalks"}, 4, nil},
		{"internal/orthvec", []string{"Evaluate", "at"}, 4, lagrangeRun},
		{"internal/csp", []string{"Evaluate", "combineAll"}, 2, pointEvaluator},
		{"internal/cliques", []string{"Evaluate", "ProofEval", "Combine"}, 3, pointEvaluator},
		{"internal/triangles", []string{"Evaluate", "atBasis"}, 2, groupTensor},
		{"internal/permanent", []string{"Evaluate"}, 1, permanentPlan},
		{"internal/core", []string{"stageDecode", "receivedWords", "sortedKeys"}, 3, faultRecord},
		{"internal/core", []string{"expectProof"}, 1, prover},
		{"internal/core", []string{"evaluateAndSend"}, 1, expectations},
		{"internal/ctrl", []string{"runAssign"}, 1, expectations},
	} {
		t.Run(filepath.Base(row.dir), func(t *testing.T) {
			pkgs, err := parser.ParseDir(token.NewFileSet(), row.dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			files := pkgs[filepath.Base(row.dir)].Files
			var plan *ast.File
			forbidden, why := row.forbidden, "a name this row forbids there"
			if forbidden == nil {
				var ok bool
				if plan, ok = files[filepath.Join(row.dir, "plan.go")]; !ok {
					t.Fatalf("%s/plan.go not found", row.dir)
				}
				declared := planDeclared(plan)
				forbidden, why = func(id string) bool { return declared[id] }, "declared in plan.go"
			}
			found := 0
			for name, file := range files {
				if file == plan {
					continue
				}
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || !slices.Contains(row.verifier, fn.Name.Name) || fn.Body == nil {
						continue
					}
					found++
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && forbidden(id.Name) {
							t.Errorf("%s: %s references %s, %s", filepath.ToSlash(name), fn.Name.Name, id.Name, why)
						}
						return true
					})
				}
			}
			if found != row.found {
				t.Fatalf("found %d of the verifier's %d functions in %s", found, row.found, row.dir)
			}
		})
	}
}

// planDeclared is every package-level name a file declares.
func planDeclared(file *ast.File) map[string]bool {
	declared := map[string]bool{}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			declared[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declared[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, id := range s.Names {
						declared[id.Name] = true
					}
				}
			}
		}
	}
	delete(declared, "_")
	return declared
}

// TestParseWorkloadDocListsCatalog checks the defaults table in
// ParseWorkload's doc comment against the catalog, line for line.
func TestParseWorkloadDocListsCatalog(t *testing.T) {
	src, err := os.ReadFile("spec.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\nfunc ParseWorkload(")
	if !ok {
		t.Fatal("spec.go has no ParseWorkload")
	}
	doc = doc[strings.LastIndex(doc, "\n\n")+1:]
	var want []string
	for _, k := range Kinds() {
		line := fmt.Sprintf("//\t%-9s", k.Name)
		for _, f := range k.Fields {
			line += " " + f.Name + "=" + f.Default
		}
		want = append(want, line)
	}
	var got []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "//\t") {
			got = append(got, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("ParseWorkload's doc table is\n%s\nbut the catalog declares\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestOneOptionsRecord is the ratchet on settable values: core.Options is
// the one record of a run's settings, at most fourteen fields, so
// camelot.go declares at most the twelve With* setters of its fields,
// ServerConfig holds service policy plus the digest's FaultTolerance and
// takes everything else as Run options, and no front end outside the
// root package assembles the record or calls the engine by hand. The
// numbers only go down.
func TestOneOptionsRecord(t *testing.T) {
	if n := reflect.TypeOf(core.Options{}).NumField(); n > 14 {
		t.Errorf("core.Options has %d fields, at most 14 allowed", n)
	}
	if withs := exportedWiths(t); len(withs) > 12 {
		t.Errorf("camelot.go declares %d With* constructors, at most 12 allowed: %v", len(withs), withs)
	}

	file, err := parser.ParseFile(token.NewFileSet(), "serve.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var serverFields []string
	ast.Inspect(file, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "ServerConfig" {
			for _, f := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range f.Names {
					serverFields = append(serverFields, name.Name)
				}
			}
		}
		return true
	})
	if len(serverFields) == 0 || len(serverFields) > 6 {
		t.Errorf("ServerConfig has %d fields, want 1..6: %v", len(serverFields), serverFields)
	}
	record := reflect.TypeOf(core.Options{})
	for _, name := range serverFields {
		if _, clash := record.FieldByName(name); clash && name != "FaultTolerance" {
			t.Errorf("ServerConfig.%s re-declares core.Options.%s: pass it in ServerConfig.Run", name, name)
		}
	}

	needles := []string{"core.Options" + "{", "core.Run" + "("} // split so this file does not match itself
	offenders := slices.DeleteFunc(linesContaining(t, needles, true, "internal/core"), func(hit string) bool {
		path, _, _ := strings.Cut(hit, ":")
		return !strings.Contains(path, "/") // the root package's own files
	})
	if len(offenders) > 0 {
		t.Errorf("run settings assembled outside the root package (use camelot.RunProblem or Cluster.Submit with With* options):\n  %s",
			strings.Join(offenders, "\n  "))
	}
}

// TestMainPackagesAreTheseSix is the ratchet on programs: the module
// builds one CLI, one benchmark and four walkthroughs, each run by CI. A
// paper claim goes into theorems_test.go and a usage scene into
// example_test.go, where they are checked; a second harness or a tenth
// example directory fails here instead of accreting.
func TestMainPackagesAreTheseSix(t *testing.T) {
	want := []string{"benchmark", "cmd/camelot", "examples/chaos", "examples/multiproc", "examples/quickstart", "examples/serve"}
	var got []string
	for _, hit := range linesContaining(t, []string{"package main"}, true, "") {
		path, rest, _ := strings.Cut(hit, ":")
		if _, text, _ := strings.Cut(rest, ": "); text != "package main" {
			continue // a mention, not a package clause
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); !slices.Contains(got, dir) {
			got = append(got, dir)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("package main directories are %v, want exactly %v", got, want)
	}
}
