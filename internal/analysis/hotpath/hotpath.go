// Package hotpath checks that functions annotated //wcc:hotpath — the
// per-sample serving-plane kernels whose zero-allocation behavior PR 6
// measured and the benchmark only bounds within a tolerance — stay free of
// categorically-allocating constructs. The AST walk catches the class of
// regression at review time; the per-package testing.AllocsPerRun == 0
// gates (see hotpath_cover_test.go at the repo root for the pinning rule)
// catch what escape analysis alone can decide.
//
// Inside an annotated function the analyzer flags:
//
//   - calls into denylisted packages that allocate or reflect by design:
//     encoding/json, fmt, errors, reflect, regexp, log, sort, strings
//     (Builder/Split-style helpers), bytes.Split/Fields/Join;
//   - string <-> []byte conversions, which copy;
//   - make, new, and taking the address of a composite literal;
//   - function literals (closure capture allocates), go statements and
//     defer statements (deferred frames may allocate, and neither belongs
//     in a per-sample kernel).
//
// One escape hatch keeps the repo's guard-clause idiom legal: a
// denylisted construct inside an if-block that terminates in return or
// panic is a cold branch (malformed input, corrupt frame) and is not
// flagged — e.g. parseIngestLineFast and the wire decoder return
// fmt.Errorf on their error paths, which never run per-sample in steady
// state. Plain append stays allowed: amortized growth into a reused
// buffer is the fast paths' core idiom, and the AllocsPerRun gate is the
// arbiter of whether it actually amortizes to zero.
package hotpath

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/directive"
)

// Analyzer is the hotpath invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "report allocating constructs in //wcc:hotpath-annotated functions outside terminating guard blocks",
	Run:  run,
}

// denyPkgs are import paths that are categorically off a hot path: every
// entry point allocates, formats, or reflects.
var denyPkgs = map[string]string{
	"encoding/json": "encoding/json formats via reflection",
	"fmt":           "fmt formats and allocates",
	"errors":        "errors constructs heap values",
	"reflect":       "reflect boxes its operands",
	"regexp":        "regexp allocates per match",
	"log":           "log formats and locks",
	"sort":          "sort takes interface values",
}

// denyFuncs are individually-denylisted functions from packages that are
// otherwise fine on hot paths.
var denyFuncs = map[string]string{
	"strings.Split":  "allocates the result slice",
	"strings.Fields": "allocates the result slice",
	"strings.Join":   "allocates the result string",
	"bytes.Split":    "allocates the result slice",
	"bytes.Fields":   "allocates the result slice",
	"bytes.Join":     "allocates the result slice",
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !directive.HasFunc(fn, "hotpath") {
				continue
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil, nil
}

// checkBody walks statements, skipping cold branches (if-blocks that
// terminate in return/panic — error guards never taken per-sample).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	for _, s := range body.List {
		checkStmt(pass, s)
	}
}

func checkStmt(pass *analysis.Pass, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init)
		}
		checkExpr(pass, s.Cond)
		if !terminates(s.Body.List) {
			checkBody(pass, s.Body)
		}
		if s.Else != nil {
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				if !terminates(blk.List) {
					checkBody(pass, blk)
				}
			} else {
				checkStmt(pass, s.Else)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init)
		}
		if s.Cond != nil {
			checkExpr(pass, s.Cond)
		}
		if s.Post != nil {
			checkStmt(pass, s.Post)
		}
		checkBody(pass, s.Body)
	case *ast.RangeStmt:
		checkExpr(pass, s.X)
		checkBody(pass, s.Body)
	case *ast.BlockStmt:
		checkBody(pass, s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init)
		}
		if s.Tag != nil {
			checkExpr(pass, s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok && !terminates(cc.Body) {
				for _, cs := range cc.Body {
					checkStmt(pass, cs)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok && !terminates(cc.Body) {
				for _, cs := range cc.Body {
					checkStmt(pass, cs)
				}
			}
		}
	case *ast.LabeledStmt:
		checkStmt(pass, s.Stmt)
	case *ast.GoStmt:
		pass.Reportf(s.Pos(), "go statement in //wcc:hotpath function: spawning belongs in the caller, not a per-sample kernel")
	case *ast.DeferStmt:
		pass.Reportf(s.Pos(), "defer in //wcc:hotpath function: deferred frames cost on every call; unwind explicitly")
	case *ast.ReturnStmt:
		// Results on the final return of a non-cold path are hot.
		for _, e := range s.Results {
			checkExpr(pass, e)
		}
	case *ast.ExprStmt:
		checkExpr(pass, s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			checkExpr(pass, e)
		}
		for _, e := range s.Lhs {
			checkExpr(pass, e)
		}
	case *ast.IncDecStmt:
		checkExpr(pass, s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						checkExpr(pass, e)
					}
				}
			}
		}
	case *ast.SelectStmt:
		pass.Reportf(s.Pos(), "select in //wcc:hotpath function: channel operations do not belong in a per-sample kernel")
	case *ast.SendStmt:
		pass.Reportf(s.Pos(), "channel send in //wcc:hotpath function: channel operations do not belong in a per-sample kernel")
	}
}

// terminates reports whether the statement list ends by leaving the
// function, making the whole block a cold guard branch.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		// continue/break skip the sample, they don't process it.
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// checkExpr flags allocating constructs in a hot expression tree.
func checkExpr(pass *analysis.Pass, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal in //wcc:hotpath function: closure capture allocates; hoist it to a method or package function")
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "address of composite literal in //wcc:hotpath function escapes to the heap; write into a caller-provided or pooled value")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Builtins make/new, and conversions string([]byte) / []byte(string).
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			pass.Reportf(call.Pos(), "make in //wcc:hotpath function: allocate buffers once at setup and reuse them")
			return
		case "new":
			pass.Reportf(call.Pos(), "new in //wcc:hotpath function: allocate at setup and reuse")
			return
		}
	}
	if conv, msg := stringConversion(pass, call); conv {
		pass.Reportf(call.Pos(), "%s in //wcc:hotpath function copies; use an unsafe zero-copy view or restructure (see server.bytesString)", msg)
		return
	}
	fn := callee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg := fn.Pkg().Path()
	if why, bad := denyPkgs[pkg]; bad {
		pass.Reportf(call.Pos(), "call to %s.%s in //wcc:hotpath function: %s", pkg, fn.Name(), why)
		return
	}
	if why, bad := denyFuncs[pkg+"."+fn.Name()]; bad {
		pass.Reportf(call.Pos(), "call to %s.%s in //wcc:hotpath function: %s", pkg, fn.Name(), why)
	}
}

// stringConversion detects string(b []byte) and []byte(s string)
// conversion "calls", which copy their operand.
func stringConversion(pass *analysis.Pass, call *ast.CallExpr) (bool, string) {
	if len(call.Args) != 1 {
		return false, ""
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false, ""
	}
	to := tv.Type
	from := pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return false, ""
	}
	if isString(to) && isByteSlice(from) {
		return true, "string([]byte) conversion"
	}
	if isByteSlice(to) && isString(from) {
		return true, "[]byte(string) conversion"
	}
	return false, ""
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// callee resolves the statically-known called function, if any.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
