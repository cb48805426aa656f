// Package lockscope checks that no potentially-blocking operation runs
// while a data mutex is held — the bug class the push plane's bounded,
// non-blocking bus design exists to prevent (DESIGN.md §12): a publish or
// channel send under a fleet or server lock would let one stalled
// consumer stall tick write-back for the whole fleet.
//
// While any sync.Mutex or sync.RWMutex is held (Lock or RLock observed
// earlier in the function without a matching Unlock), the analyzer flags:
//
//   - naked channel sends — a send statement, or a send inside a select
//     with no default clause (a select WITH a default is the sanctioned
//     non-blocking form events.Bus.Publish uses);
//   - calls to any method named Publish (the push-plane emission verbs);
//   - time.Sleep, package net and net/http calls, and os/exec;
//   - sync.WaitGroup.Wait and sync.Cond.Wait.
//
// Some locks deliberately order publishes under them: fleet.Monitor's swap
// lock mu (read side: every tick, which waits for its partition goroutines
// under it; write side: swaps) holds the swap protocol's guarantee that a
// swap event publishes exactly when the installation is visible, a
// partition's tickMu is held across the write-back that publishes, and
// the bus they publish into is itself non-blocking. Such mutex fields are
// annotated //wcc:coordlock at their declaration; Publish and Wait are
// permitted while only coordlocks are held. Sleeps, net I/O and naked
// sends stay forbidden even under a coordlock.
//
// The analysis is intra-procedural and tracks lock state sequentially
// through each function body: a branch that terminates (returns or
// panics) does not leak its lock-state changes past the branch, so the
// common `if err != nil { mu.Unlock(); return err }` guard keeps the
// fall-through path correctly marked as still locked. Helper functions
// whose callers hold locks (e.g. fleet.publishSwap, documented "callers
// hold the write side of m.mu") are analyzed in their own context; the
// convention there remains the documented caller contract.
package lockscope

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/directive"
)

// Analyzer is the lockscope invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "report potentially-blocking calls (Publish, channel sends, sleeps, net I/O) while holding a data mutex",
	Run:  run,
}

// heldLock is one acquired mutex on the walker's stack.
type heldLock struct {
	obj   types.Object // the mutex variable or field, for Unlock matching
	name  string
	coord bool // field annotated //wcc:coordlock
}

func run(pass *analysis.Pass) (interface{}, error) {
	coord := coordLocks(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &walker{pass: pass, coord: coord}
			w.stmts(fn.Body.List)
		}
	}
	return nil, nil
}

// coordLocks collects the mutex struct fields annotated //wcc:coordlock.
func coordLocks(pass *analysis.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if !directive.HasField(f, "coordlock") {
					continue
				}
				for _, name := range f.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil && isMutexType(obj.Type()) {
						out[obj] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// isMutexType reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

type walker struct {
	pass  *analysis.Pass
	coord map[types.Object]bool
	held  []heldLock
}

// snapshot and restore bracket branches whose lock-state changes must not
// leak (terminating branches, loop bodies that may run zero times).
func (w *walker) snapshot() []heldLock { return append([]heldLock(nil), w.held...) }
func (w *walker) restore(s []heldLock) { w.held = s }

// terminates reports whether the statement list ends by leaving the
// function (return or panic), so its lock-state changes never reach the
// fall-through path.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
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

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		w.nakedSend(s)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// function, which is exactly how the walker already models an
		// unmatched Lock, so only the arguments need visiting. Other
		// deferred calls run at exit, outside this sequential model.
		for _, e := range s.Call.Args {
			w.expr(e)
		}
	case *ast.GoStmt:
		// A spawned goroutine does not inherit the spawner's locks.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.fresh(lit.Body)
		}
		for _, e := range s.Call.Args {
			w.expr(e)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		snap := w.snapshot()
		w.stmts(s.Body.List)
		if terminates(s.Body.List) {
			w.restore(snap)
		}
		if s.Else != nil {
			snap := w.snapshot()
			w.stmt(s.Else)
			if blk, ok := s.Else.(*ast.BlockStmt); ok && terminates(blk.List) {
				w.restore(snap)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		snap := w.snapshot()
		w.stmts(s.Body.List)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.restore(snap) // the body may run zero times
	case *ast.RangeStmt:
		w.expr(s.X)
		snap := w.snapshot()
		w.stmts(s.Body.List)
		w.restore(snap)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.clauses(s.Body.List)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.clauses(s.Body.List)
	case *ast.SelectStmt:
		w.selectStmt(s)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// clauses walks switch cases, each from the pre-switch lock state.
func (w *walker) clauses(list []ast.Stmt) {
	snap := w.snapshot()
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				w.expr(e)
			}
			w.stmts(cc.Body)
			w.restore(snap)
		}
	}
}

// selectStmt checks each communication clause: a send in a select without
// a default clause blocks exactly like a naked send.
func (w *walker) selectStmt(s *ast.SelectStmt) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	snap := w.snapshot()
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault {
			w.nakedSend(send)
		}
		w.stmts(cc.Body)
		w.restore(snap)
	}
}

// fresh analyzes a function literal body with an empty lock stack.
func (w *walker) fresh(body *ast.BlockStmt) {
	nw := &walker{pass: w.pass, coord: w.coord}
	nw.stmts(body.List)
}

// expr visits an expression tree for calls and nested function literals.
func (w *walker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures are analyzed with a fresh stack: whether they run
			// under the spawner's locks depends on the call site, which an
			// intra-procedural pass cannot see. They still get checked for
			// their own internal lock discipline.
			w.fresh(n.Body)
			return false
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

// call classifies a call: a Lock/Unlock transition mutates the stack, any
// other call is checked against the blocking denylist.
func (w *walker) call(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok {
		if obj, method, isLock := w.lockOp(sel); isLock {
			switch method {
			case "Lock", "RLock":
				w.held = append(w.held, heldLock{obj: obj, name: obj.Name(), coord: w.coord[obj]})
			case "Unlock", "RUnlock":
				for i := len(w.held) - 1; i >= 0; i-- {
					if w.held[i].obj == obj {
						w.held = append(w.held[:i], w.held[i+1:]...)
						break
					}
				}
			}
			return
		}
	}
	if len(w.held) == 0 {
		return
	}
	w.checkBlocking(call)
}

// lockOp resolves a selector call to a mutex Lock/Unlock operation on a
// sync.Mutex/RWMutex-typed variable or field.
func (w *walker) lockOp(sel *ast.SelectorExpr) (types.Object, string, bool) {
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	var obj types.Object
	switch x := sel.X.(type) {
	case *ast.Ident:
		obj = w.pass.TypesInfo.Uses[x]
	case *ast.SelectorExpr:
		obj = w.pass.TypesInfo.Uses[x.Sel]
	}
	if obj == nil || !isMutexType(obj.Type()) {
		return nil, "", false
	}
	return obj, method, true
}

// nakedSend reports a blocking channel send under any held lock.
func (w *walker) nakedSend(s *ast.SendStmt) {
	if len(w.held) == 0 {
		return
	}
	w.pass.Reportf(s.Arrow, "blocking channel send while holding mutex %q; send after unlocking, or use a select with a default clause", w.held[len(w.held)-1].name)
}

// checkBlocking flags denylisted potentially-blocking calls under held
// locks. Publish and Wait are permitted when every held lock is an
// annotated coordination lock.
func (w *walker) checkBlocking(call *ast.CallExpr) {
	fn := calleeFunc(w.pass, call)
	if fn == nil {
		return
	}
	name := fn.Name()
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}

	hardBlock := ""
	switch {
	case pkgPath == "time" && name == "Sleep":
		hardBlock = "time.Sleep"
	case pkgPath == "net" || pkgPath == "net/http":
		hardBlock = pkgPath + "." + name
	case pkgPath == "os/exec":
		hardBlock = "os/exec." + name
	}
	if hardBlock != "" {
		w.pass.Reportf(call.Pos(), "potentially-blocking call to %s while holding mutex %q", hardBlock, w.held[len(w.held)-1].name)
		return
	}

	soft := ""
	switch {
	case name == "Publish" && fn.Type().(*types.Signature).Recv() != nil:
		soft = "event publish"
	case pkgPath == "sync" && name == "Wait":
		soft = "sync wait"
	}
	if soft == "" {
		return
	}
	for _, h := range w.held {
		if !h.coord {
			w.pass.Reportf(call.Pos(), "%s (%s) while holding data mutex %q; move it after the unlock, or annotate the lock field //wcc:coordlock if ordering under it is part of the protocol", soft, fullName(fn), h.name)
			return
		}
	}
}

// calleeFunc resolves the called function or method, if statically known.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
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

// fullName renders a readable qualified name for diagnostics.
func fullName(fn *types.Func) string {
	s := fn.FullName()
	// Trim the module path prefix so messages stay short and stable.
	s = strings.ReplaceAll(s, "repro/internal/", "")
	return s
}
