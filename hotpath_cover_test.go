package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/directive"
)

// TestHotpathAnnotationsHaveAllocGates closes the loop on the //wcc:hotpath
// contract: the static analyzer (internal/analysis/hotpath) proves the
// absence of categorically-allocating constructs, and this test proves the
// presence of the runtime gate — every annotated function must be exercised
// by a testing.AllocsPerRun gate in a *_alloc_test.go in its own package.
// Annotating a function without pinning it, or deleting a gate while
// keeping the annotation, fails tier-1 here.
func TestHotpathAnnotationsHaveAllocGates(t *testing.T) {
	type annot struct{ dir, fn string }
	var annots []annot
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "vendor", "testdata", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && directive.HasFunc(fn, "hotpath") {
				annots = append(annots, annot{dir: filepath.Dir(path), fn: fn.Name.Name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The serving plane carries at least its seven known kernels; fewer
	// means someone un-annotated a hot path without retiring its gate
	// story here and in DESIGN.md §13.
	if len(annots) < 7 {
		t.Fatalf("found only %d //wcc:hotpath annotations, want >= 7", len(annots))
	}

	gates := map[string]string{} // dir -> concatenated *_alloc_test.go content
	for _, a := range annots {
		if _, ok := gates[a.dir]; !ok {
			var sb strings.Builder
			matches, err := filepath.Glob(filepath.Join(a.dir, "*_alloc_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range matches {
				b, err := os.ReadFile(m)
				if err != nil {
					t.Fatal(err)
				}
				sb.Write(b)
			}
			gates[a.dir] = sb.String()
		}
		content := gates[a.dir]
		if content == "" {
			t.Errorf("%s: //wcc:hotpath on %s but no *_alloc_test.go in the package", a.dir, a.fn)
			continue
		}
		if !strings.Contains(content, a.fn+"(") {
			t.Errorf("%s: //wcc:hotpath on %s but no alloc gate calls it", a.dir, a.fn)
		}
		if !strings.Contains(content, "AllocsPerRun") {
			t.Errorf("%s: alloc test files never call testing.AllocsPerRun", a.dir)
		}
	}
}
