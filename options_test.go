package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// optionTypes are the offline learners' option structs. A field of one is
// a value some caller varies; a value every caller leaves alone is a
// package constant instead (CONTRIBUTING.md, Options).
var optionTypes = []struct{ dir, name string }{
	{"internal/svm", "Config"},
	{"internal/svm", "LinearConfig"},
	{"internal/xgb", "Config"},
	{"internal/modelsel", "GridSearch"},
	{"internal/nn", "TrainConfig"},
	{"internal/drift", "Options"},
}

// TestEveryOptionHasACaller holds every field of optionTypes to a caller: a
// non-test Go file outside the type's own package and outside benchmark/
// must set it, either as a key of a composite literal of the type or by a
// selector assignment (cfg.Epochs = …) to a variable the same function
// declared of the type — from a literal, a parameter, a var of the type, or
// a call to one of its package's functions returning it, such as
// nn.DefaultTrainConfig.
func TestEveryOptionHasACaller(t *testing.T) {
	type option struct {
		dir, name string
		fields    []string        // in declaration order
		ctors     map[string]bool // package functions returning the type
		set       map[string]bool
	}
	opts := make([]*option, len(optionTypes))
	for i, ot := range optionTypes {
		o := &option{dir: ot.dir, name: ot.name, ctors: map[string]bool{}, set: map[string]bool{}}
		pkgs, err := parser.ParseDir(token.NewFileSet(), ot.dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							ts, ok := spec.(*ast.TypeSpec)
							if !ok || ts.Name.Name != ot.name {
								continue
							}
							st, ok := ts.Type.(*ast.StructType)
							if !ok {
								t.Fatalf("%s.%s is not a struct", ot.dir, ot.name)
							}
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									o.fields = append(o.fields, n.Name)
								}
							}
						}
					case *ast.FuncDecl:
						if r := d.Type.Results; d.Recv == nil && r != nil && len(r.List) == 1 && len(r.List[0].Names) <= 1 {
							typ := r.List[0].Type
							if star, ok := typ.(*ast.StarExpr); ok {
								typ = star.X
							}
							if id, ok := typ.(*ast.Ident); ok && id.Name == ot.name {
								o.ctors[d.Name.Name] = true
							}
						}
					}
				}
			}
		}
		if len(o.fields) == 0 {
			t.Fatalf("no struct %s with fields in %s", ot.name, ot.dir)
		}
		opts[i] = o
	}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "vendor", "testdata", ".git", "benchmark":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
		if err != nil {
			return err
		}
		imported := map[string]string{} // import path -> local name
		for _, spec := range f.Imports {
			ip := strings.Trim(spec.Path.Value, `"`)
			local := path.Base(ip)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imported[ip] = local
		}
		for _, o := range opts {
			local, ok := imported["repro/"+o.dir]
			if !ok || filepath.Dir(p) == filepath.FromSlash(o.dir) {
				continue
			}
			markSetters(f, local, o.name, o.fields, o.ctors, o.set)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range opts {
		for _, fld := range o.fields {
			if !o.set[fld] {
				t.Errorf("%s.%s.%s: no non-test Go file outside %s and benchmark/ sets it; a value no caller varies is a constant",
					path.Base(o.dir), o.name, fld, o.dir)
			}
		}
	}
}

// markSetters records in set the fields of pkg.typ that f's functions set.
func markSetters(f *ast.File, pkg, typ string, fields []string, ctors, set map[string]bool) {
	isType := func(e ast.Expr) bool {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != typ {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg
	}
	var yields func(e ast.Expr) bool
	yields = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return yields(e.X)
		case *ast.UnaryExpr:
			return e.Op == token.AND && yields(e.X)
		case *ast.CompositeLit:
			return isType(e.Type)
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			if !ok || !ctors[sel.Sel.Name] {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == pkg
		}
		return false
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		vars := map[string]bool{} // identifiers this function declared of the type
		for _, fl := range fn.Type.Params.List {
			if isType(fl.Type) {
				for _, n := range fl.Names {
					vars[n.Name] = true
				}
			}
		}
		setVia := func(lhs ast.Expr) {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if id, ok := sel.X.(*ast.Ident); ok && vars[id.Name] {
				set[sel.Sel.Name] = true
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !isType(n.Type) {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[key.Name] = true
						}
					} else if i < len(fields) {
						set[fields[i]] = true
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if n.Tok != token.DEFINE {
						setVia(lhs)
					}
					if id, ok := lhs.(*ast.Ident); ok && len(n.Rhs) == len(n.Lhs) && yields(n.Rhs[i]) {
						vars[id.Name] = true
					}
				}
			case *ast.IncDecStmt:
				setVia(n.X)
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if isType(n.Type) || (i < len(n.Values) && yields(n.Values[i])) {
						vars[id.Name] = true
					}
				}
			}
			return true
		})
	}
}
