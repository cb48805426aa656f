// Package nakedtime checks tick-path clock discipline: a function
// annotated //wcc:tickpath must take its notion of time from the caller
// (an injected clock function or an explicit timestamp argument) rather
// than calling the time package directly. The equivalence tests pin the
// serving plane bit-identical across refactors; a naked time.Now inside a
// tick path makes tick output depend on wall-clock jitter and unpins
// them. time.Sleep inside a tick is worse — it stalls the whole cadence.
//
// Inside an annotated function (including its function literals, which
// execute on the same tick) the analyzer flags calls to time.Now,
// time.Sleep, time.Since, time.Until, time.After, time.Tick,
// time.NewTimer and time.NewTicker. Constructing durations and calling
// methods on caller-provided time.Time values remain fine — the rule is
// about where time is read, not how it is arithmetic'd.
//
// The annotation itself is enforced where it matters most: exported
// methods named Tick or TickShard in internal/fleet — the entry points the
// loop drivers call — must carry //wcc:tickpath, so the rule cannot be
// silently dropped by deleting a comment.
package nakedtime

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/directive"
)

// Analyzer is the nakedtime invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "nakedtime",
	Doc:  "report direct time-package reads inside //wcc:tickpath functions, and missing annotations on Tick entry points",
	Run:  run,
}

// denied are the time-package functions that read or wait on the real
// clock.
var denied = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// mustAnnotate lists package-path suffixes whose exported Tick entry
// points are required to carry the annotation.
var mustAnnotate = []string{
	"internal/fleet",
}

func run(pass *analysis.Pass) (interface{}, error) {
	enforce := false
	for _, s := range mustAnnotate {
		if pass.Pkg.Path() == s || strings.HasSuffix(pass.Pkg.Path(), "/"+s) {
			enforce = true
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			annotated := directive.HasFunc(fn, "tickpath")
			if enforce && !annotated && fn.Recv != nil &&
				(fn.Name.Name == "Tick" || fn.Name.Name == "TickShard") {
				pass.Reportf(fn.Pos(), "%s.%s is a tick entry point and must carry //wcc:tickpath", pass.Pkg.Name(), fn.Name.Name)
				continue
			}
			if !annotated {
				continue
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil, nil
}

// checkBody flags denied time-package calls anywhere in the body,
// including function literals (they run on the same tick).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		if denied[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s inside //wcc:tickpath function: take the clock from the caller (injected now func or timestamp argument) so equivalence tests stay deterministic", fn.Name())
		}
		return true
	})
}
