package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
// and every wcc_* metric either exports, every internal package carries
// package godoc, and every test the docs cite exists. Three one-way rules
// hold too: only internal/core calibrates a drift section or spells out the
// simulation settings (one training path, DESIGN.md §7); no code outside
// internal/tree calls PredictProbaRow, and inside internal/xgb only Fit
// reaches predictRow (one scoring path, tree.Flat: DESIGN.md §11); and no
// code outside benchmark/ declares a printf-style Logf/logf func field,
// parameter or variable (one log, log/slog's default logger: DESIGN.md §12).
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
	for _, name := range quoted(t, `"wcc_[a-z_]+`, "internal/server/metrics.go", "internal/cluster/handler.go") {
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
	logPlumbing := regexp.MustCompile(`\b[Ll]ogf\s*(?::?=\s*)?func\(`)
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	var testFuncs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch filepath.ToSlash(path) {
			case "vendor", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				testFuncs = append(testFuncs, string(m[1]))
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if loc := logPlumbing.Find(src); loc != nil && dir != "benchmark" {
			t.Errorf("%s: %s declares a log func; call log/slog instead", path, loc)
		}
		if loc := treeWalk.Find(src); loc != nil && dir != "internal/tree" {
			t.Errorf("%s: %s walks pointer trees; score through the flat kernel (PredictProba)", path, loc)
		}
		switch dir {
		case "benchmark", "internal/telemetry", "internal/core":
			return nil
		}
		if loc := stray.Find(src); loc != nil {
			t.Errorf("%s: %s outside internal/core (use core.TrainArtifact / core.Provenance)", path, loc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
