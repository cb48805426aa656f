package repro

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// quoted returns the distinct matches of re in the named source files, with
// the quotes stripped; finding none at all means the source moved and the
// check would silently pass, so that fails.
func quoted(t *testing.T, re string, files ...string) []string {
	t.Helper()
	seen := map[string]bool{}
	var out []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(re).FindAllString(string(src), -1) {
			if m = strings.Trim(m, `"`); !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("found nothing matching %s in %v", re, files)
	}
	return out
}

// TestDocsConsistency holds the written contract to the code: docs/API.md
// names every HTTP route the server and the cluster control plane register
// and every wcc_* metric either exports, every wcc_* name a non-test Go file
// spells, comments included, is one of those series or a wcc_…_* prefix of
// one, every internal package carries
// package godoc, and every test the docs cite exists. Three one-way rules
// hold too: only internal/core calibrates a drift section or spells out the
// simulation settings (one training path, DESIGN.md §7); no code outside
// internal/tree calls PredictProbaRow, inside internal/xgb only Fit
// reaches predictRow, neither internal/forest nor internal/xgb fans a batch
// out over row blocks itself, and only tests call mat.SetKernelPath (one
// scoring path, tree.Ensemble over tree.Flat, whose walk the CPU picks, as
// it picks the drift search's kernels: DESIGN.md §11); and no
// code outside benchmark/ declares a printf-style Logf/logf func field,
// parameter or variable (one log, log/slog's default logger: DESIGN.md §12).
// DESIGN.md stays under its line ceiling and true to the code (checkDesign),
// and every file.go:N citation in the docs points at lines that exist
// (checkLineCitations).
func TestDocsConsistency(t *testing.T) {
	doc, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	api := string(doc)

	for _, route := range quoted(t, `"(GET|POST|DELETE) [^"]+"`, "internal/server/server.go") {
		if _, path, _ := strings.Cut(route, " "); !strings.Contains(api, path) {
			t.Errorf("docs/API.md does not mention registered route %s", route)
		}
	}
	for _, path := range quoted(t, `"/cluster/v1/[^"]+"`, "internal/cluster/control.go") {
		if !strings.Contains(api, path) {
			t.Errorf("docs/API.md does not mention cluster route %s", path)
		}
	}
	written := map[string]bool{}
	for _, name := range quoted(t, `"wcc_[a-z_]+`, "internal/server/metrics.go", "internal/cluster/handler.go") {
		written[name] = true
		if !regexp.MustCompile(`\b` + name + `\b`).MatchString(api) {
			t.Errorf("docs/API.md does not document metric %s", name)
		}
	}

	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range pkgs {
		if !e.IsDir() {
			continue
		}
		checked++
		name := e.Name()
		files, _ := filepath.Glob(filepath.Join("internal", name, "*.go"))
		documented := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if regexp.MustCompile(`(?m)^// Package ` + name + ` `).Match(src) {
				documented = true
			}
		}
		if !documented {
			t.Errorf("package %s lacks a '// Package %s ...' godoc comment", name, name)
		}
	}
	if checked == 0 {
		t.Fatal("found no package directories under internal/")
	}

	stray := regexp.MustCompile(`drift\.Fit\(|GapRate: 1`)
	treeWalk := regexp.MustCompile(`\bPredictProbaRow\(`)
	rowFanOut := regexp.MustCompile(`\bParallelRowBlocks\(`)
	kernelSwitch := regexp.MustCompile(`(\bfunc )?\bSetKernelPath\(`)
	logPlumbing := regexp.MustCompile(`\b[Ll]ogf\s*(?::?=\s*)?func\(`)
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	series := regexp.MustCompile(`\bwcc_[a-z0-9_]*\*?`)
	var testFuncs []string
	for _, path := range repoFiles(t) {
		if !strings.HasSuffix(path, ".go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				testFuncs = append(testFuncs, string(m[1]))
			}
			continue
		}
		for _, name := range series.FindAllString(string(src), -1) {
			prefix, wild := strings.CutSuffix(name, "_*")
			found := written[name]
			for w := range written {
				found = found || wild && strings.HasPrefix(w, prefix+"_")
			}
			if !found {
				t.Errorf("%s names %s, which is no series internal/server/metrics.go or internal/cluster/handler.go writes", path, name)
			}
		}
		dir := filepath.Dir(path)
		if loc := logPlumbing.Find(src); loc != nil && dir != "benchmark" {
			t.Errorf("%s: %s declares a log func; call log/slog instead", path, loc)
		}
		if loc := treeWalk.Find(src); loc != nil && dir != "internal/tree" {
			t.Errorf("%s: %s walks pointer trees; score through the flat kernel (PredictProba)", path, loc)
		}
		if loc := rowFanOut.Find(src); loc != nil && (dir == "internal/forest" || dir == "internal/xgb") {
			t.Errorf("%s: %s fans a batch out itself; predict through the embedded tree.Ensemble", path, loc)
		}
		for _, m := range kernelSwitch.FindAllSubmatch(src, -1) {
			if len(m[1]) == 0 {
				t.Errorf("%s: %s outside a test; the CPU picks the kernels' path", path, m[0])
			}
		}
		// internal/servetest is test fixtures: CI keeps it out of every
		// non-test package's imports.
		switch dir {
		case "benchmark", "internal/telemetry", "internal/core", "internal/servetest":
			continue
		}
		if loc := stray.Find(src); loc != nil {
			t.Errorf("%s: %s outside internal/core (use core.TrainArtifact / core.Provenance)", path, loc)
		}
	}

	users := predictRowUsers(t, "internal/xgb")
	if !users["Fit"] {
		t.Error("internal/xgb: Fit no longer calls predictRow; the one-scoring-path rule checks nothing")
	}
	for fn := range users {
		if fn != "Fit" {
			t.Errorf("internal/xgb: %s reaches predictRow; only Fit may (predict through the flat kernel)", fn)
		}
	}

	checkDesign(t)
	checkLineCitations(t, "DESIGN.md", "README.md", "ROADMAP.md", "CONTRIBUTING.md", "docs/API.md",
		".claude/skills/verify/SKILL.md")

	// Every test, benchmark or fuzz target the docs cite exists; a trailing
	// * cites every function with that prefix, and at least one must exist.
	cites := `\b(?:Test|Benchmark|Fuzz)[A-Z]\w*\*?`
	for _, name := range quoted(t, cites, "README.md", "DESIGN.md", "CONTRIBUTING.md", "docs/API.md", ".claude/skills/verify/SKILL.md") {
		prefix, wild := strings.CutSuffix(name, "*")
		found := false
		for _, f := range testFuncs {
			found = found || f == name || wild && strings.HasPrefix(f, prefix)
		}
		if !found {
			t.Errorf("the docs cite %s, which no _test.go declares", name)
		}
	}
}

// predictRowUsers parses the non-test files of dir and returns the names of
// the declarations that call or take the method value of predictRow, the
// booster's per-tree pointer walk; a package-level declaration is reported
// as "package scope". The rule needs the parser, not a regex, because Fit
// shares its file with the predict methods.
func predictRowUsers(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	users := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			name := "package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "predictRow" {
					users[name] = true
				}
				return true
			})
		}
	}
	return users
}

// designCeiling is DESIGN.md's line budget, set at the rewrite that made
// every section invariant, test and metric. A change may lower it; one that
// raises it says so in CHANGES.md.
const designCeiling = 840

// citedDocs are the Markdown files the project maintains. With every .go
// and .yml file they are what a DESIGN.md section citation is checked in.
var citedDocs = []string{"README.md", "DESIGN.md", "ROADMAP.md", "CONTRIBUTING.md", "CHANGES.md",
	"docs/API.md", "benchmark/README.md", ".claude/skills/verify/SKILL.md"}

// checkDesign holds DESIGN.md to its ceiling and to the code: every
// "DESIGN.md §N" or "DESIGN §N" citation in the cited docs, .go and .yml
// files, and every bare §N inside DESIGN.md, names a "## N." heading; every
// numbered section cites a test; and every metric DESIGN.md names exists —
// a BENCHMARK.json workload, end-to-end metric or layer, or a wcc_* series
// some non-test Go file writes. A name counts as a metric when it is
// backticked in a "**Priced by**" paragraph, or anywhere when it is shaped
// like one: wcc_…, a dotted layer (fleet.tick_ns_per_row) or a snake_case
// name ending in a unit (_ms, _s, _pct, _item, _job).
func checkDesign(t *testing.T) {
	t.Helper()
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(src)
	if n := strings.Count(design, "\n"); n > designCeiling {
		t.Errorf("DESIGN.md is %d lines, over its ceiling of %d", n, designCeiling)
	}

	sections := map[string]bool{}
	heading := regexp.MustCompile(`(?m)^## (\d+)\. `)
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	files := append([]string(nil), citedDocs...)
	for _, f := range repoFiles(t) {
		if ext := filepath.Ext(f); ext == ".go" || ext == ".yml" {
			files = append(files, f)
		}
	}
	citation := regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)`)
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citation.FindAllSubmatch(body, -1) {
			if !sections[string(m[1])] {
				t.Errorf("%s cites %s, and DESIGN.md has no section %s", f, m[0], m[1])
			}
		}
	}
	for _, m := range regexp.MustCompile(`§(\d+)`).FindAllStringSubmatch(design, -1) {
		if !sections[m[1]] {
			t.Errorf("DESIGN.md cites §%s, which it does not have", m[1])
		}
	}

	locs := heading.FindAllStringSubmatchIndex(design, -1)
	if len(locs) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	for i, loc := range locs {
		end := len(design)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		if !testName.MatchString(design[loc[0]:end]) {
			t.Errorf("DESIGN.md §%s cites no test", design[loc[2]:loc[3]])
		}
	}

	known := metricNames(t)
	metricShaped := regexp.MustCompile(`^(?:wcc_[a-z0-9_]*\*?|[a-z]+\.[a-z0-9]+(?:_[a-z0-9]+)+|[a-z0-9]+(?:_[a-z0-9]+)*_(?:ms|s|pct|item|job))$`)
	backticked := regexp.MustCompile("`([^`\n]+)`")
	pricedParas := 0
	for _, para := range strings.Split(design, "\n\n") {
		priced := strings.HasPrefix(para, "**Priced by**")
		if priced {
			pricedParas++
		}
		for _, m := range backticked.FindAllStringSubmatch(para, -1) {
			name := m[1]
			if !priced && !metricShaped.MatchString(name) {
				continue
			}
			prefix, wild := strings.CutSuffix(name, "*")
			found := known[name]
			for k := range known {
				found = found || wild && strings.HasPrefix(k, prefix)
			}
			if !found {
				t.Errorf("DESIGN.md prices with %s, which is no BENCHMARK.json name and no wcc_* series", name)
			}
		}
	}
	if pricedParas < len(locs) {
		t.Errorf("DESIGN.md has %d **Priced by** paragraphs for %d sections", pricedParas, len(locs))
	}
}

// metricNames returns every name a DESIGN.md metric citation may use: the
// BENCHMARK.json workloads, end-to-end metrics and layers, and the wcc_*
// series the non-test Go outside vendor/ writes.
func metricNames(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(src, &bench); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, list := range [][]struct{ Name string }{bench.Workloads, bench.EndToEnd, bench.PerLayer} {
		if len(list) == 0 {
			t.Fatal("BENCHMARK.json lists no workloads, end-to-end metrics or layers")
		}
		for _, n := range list {
			known[n.Name] = true
		}
	}
	var gofiles []string
	for _, f := range repoFiles(t) {
		if strings.HasSuffix(f, ".go") && !strings.HasSuffix(f, "_test.go") && !strings.HasPrefix(f, "benchmark/") {
			gofiles = append(gofiles, f)
		}
	}
	for _, name := range quoted(t, `"wcc_[a-z0-9_]+`, gofiles...) {
		known[name] = true
	}
	return known
}

// checkLineCitations holds every file.go:N or file.go:N-M citation in docs
// to the tree: the file exists (a bare basename must name exactly one .go
// file outside vendor/), 1 ≤ N ≤ M ≤ its line count, a citation attached
// to a backticked identifier — `fleet.New` (`internal/fleet/fleet.go:309`),
// or `fleet.New` at `internal/fleet/fleet.go:309` — points at lines holding
// the identifier's last component, and one attached to quoted text —
// ("ended or evicted", `internal/fleet/fleet.go:791`) — at lines holding
// the text, runs of white space and comment slashes read as one space.
func checkLineCitations(t *testing.T, docs ...string) {
	t.Helper()
	byBase := map[string][]string{}
	for _, f := range repoFiles(t) {
		if strings.HasSuffix(f, ".go") {
			byBase[filepath.Base(f)] = append(byBase[filepath.Base(f)], f)
		}
	}
	cite := regexp.MustCompile("(?:`([A-Za-z_][\\w.]*)`\\s*(?:\\(|at\\s+)`|\\(\"([^\"]+)\",\\s*`)?\\b([\\w./-]+\\.go):((\\d+)(?:-(\\d+))?)")
	space := regexp.MustCompile(`(?:\s|//)+`)
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(src), -1) {
			ident, text, file, span := m[1], m[2], m[3], m[4]
			path := file
			if !strings.Contains(file, "/") {
				if len(byBase[file]) != 1 {
					t.Errorf("%s cites %s:%s, and %d files outside vendor/ are named %s", doc, file, span, len(byBase[file]), file)
					continue
				}
				path = byBase[file][0]
			}
			body, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s cites %s:%s: %v", doc, file, span, err)
				continue
			}
			lo, _ := strconv.Atoi(m[5])
			hi, err := strconv.Atoi(m[6])
			if err != nil {
				hi = lo
			}
			lines := strings.SplitAfter(string(body), "\n")
			if lo < 1 || hi < lo || hi > strings.Count(string(body), "\n") {
				t.Errorf("%s cites %s:%s, outside its %d lines", doc, file, span, strings.Count(string(body), "\n"))
				continue
			}
			cited := strings.Join(lines[lo-1:hi], "")
			last := ident[strings.LastIndex(ident, ".")+1:]
			if ident != "" && !strings.Contains(cited, last) {
				t.Errorf("%s cites `%s` at %s:%s, and those lines do not mention %s", doc, ident, file, span, last)
			}
			if text != "" && !strings.Contains(space.ReplaceAllString(cited, " "), space.ReplaceAllString(text, " ")) {
				t.Errorf("%s quotes %q at %s:%s, and those lines do not hold it", doc, text, file, span)
			}
		}
	}
}

// repoFiles lists every file of the repository outside vendor/ and .git/,
// slash-separated and relative to the root.
func repoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "vendor" || path == ".git"):
			return filepath.SkipDir
		case !d.IsDir():
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
