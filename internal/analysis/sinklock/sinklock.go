// Package sinklock proves that conjunction delivery happens under a lock.
// The Sink and Observer contracts (internal/core/observer.go) promise that
// Emit/OnStep/OnPhase calls are serialised by the pipeline; consumers build
// on that promise with unsynchronised appends. The pipeline keeps it by
// wrapping every delivery in a mutex — refineCandidates' per-run mu for
// Emit, obsMu for observer callbacks, the legacy row emitter's e.mu. A new
// call site that emits without the lock compiles, passes the unit tests
// (single-goroutine), and corrupts consumer state only under a parallel
// run.
//
// The analyzer runs the shared CFG/dataflow layer as a MUST-analysis
// (min-join): a sync.Mutex or sync.RWMutex — plain local or one-level field
// path like `r.obsMu` — is "held" only when Lock() precedes on EVERY path.
// Unlock() releases; `defer mu.Unlock()` is ignored, because the lock then
// stays held until the function exits, which is exactly the
// Lock-defer-Unlock idiom the pipeline uses. RLock is not acquisition:
// multiple readers emitting concurrently is precisely the race the
// contract forbids.
//
// Guarded calls are matched by method name and receiver type name —
// Emit on a Sink/SinkFunc, OnStep/OnPhase on an Observer/ObserverFuncs —
// and reported when no tracked mutex is held at the call.
//
// Emission sites whose serialisation is inherited from a caller (the
// pre-run single-goroutine phase emit, observer adapters that are
// themselves invoked under the pipeline's obsMu) carry //lint:sinklock-ok
// with a justification.
package sinklock

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the sinklock check.
var Analyzer = &analysis.Analyzer{
	Name: "sinklock",
	Doc: "Sink.Emit and Observer.OnStep/OnPhase must be dominated by a mutex " +
		"acquisition on every path; the delivery contract promises serialisation",
	Run: run,
}

// guardedMethods maps method name → receiver type names whose calls demand a
// held lock.
var guardedMethods = map[string]map[string]bool{
	"Emit":    {"Sink": true, "SinkFunc": true},
	"OnStep":  {"Observer": true, "ObserverFuncs": true},
	"OnPhase": {"Observer": true, "ObserverFuncs": true},
}

const stHeld = 1

// fieldKey tracks one-level mutex paths like `r.obsMu`.
type fieldKey struct {
	base  types.Object
	field string
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		analysis.ForEachFuncBody(file, func(_ ast.Node, body *ast.BlockStmt) {
			checkFunc(pass, body)
		})
	}
	return nil
}

type checker struct{ pass *analysis.Pass }

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// Fast path: only bodies containing a guarded call need the solver.
	guarded := false
	analysis.InspectShallow(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isGuardedCall(pass.TypesInfo, call) {
			guarded = true
		}
		return !guarded
	})
	if !guarded {
		return
	}
	c := &checker{pass: pass}
	g := analysis.BuildCFG(body)
	problem := analysis.FlowProblem{Transfer: c.transfer, Join: analysis.JoinMin}
	entries := analysis.SolveFlow(g, problem)
	analysis.ReplayFlow(g, problem, entries, c.visit)
}

// transfer tracks Lock/Unlock on every mutex-typed local or field path.
func (c *checker) transfer(n ast.Node, st analysis.FlowState) {
	if _, ok := n.(*ast.DeferStmt); ok {
		// `defer mu.Unlock()` runs at exit: the lock is held for the rest of
		// the body, so the deferred release must not clear the state.
		return
	}
	analysis.InspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		key := c.mutexKey(sel.X)
		if key == nil {
			return true
		}
		switch sel.Sel.Name {
		case "Lock":
			st.Set(key, stHeld)
		case "Unlock":
			st.Set(key, 0)
		}
		// RLock/RUnlock: shared access, not serialisation — ignored.
		return true
	})
}

// visit reports guarded calls reached with no mutex held.
func (c *checker) visit(n ast.Node, st analysis.FlowState) {
	if anyHeld(st) {
		return
	}
	analysis.InspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isGuardedCall(c.pass.TypesInfo, call) {
			return true
		}
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		c.pass.Reportf(call.Pos(),
			"%s on %s without a lock held on every path: the delivery contract "+
				"serialises Sink/Observer calls; acquire the documented mutex or annotate //lint:sinklock-ok",
			sel.Sel.Name, typeNameOf(c.pass.TypesInfo, sel.X))
		return true
	})
}

func anyHeld(st analysis.FlowState) bool {
	for _, v := range st {
		if v == stHeld {
			return true
		}
	}
	return false
}

// mutexKey returns the tracking key when e is a sync.Mutex or sync.RWMutex
// valued local, parameter, or one-level field path.
func (c *checker) mutexKey(e ast.Expr) any {
	e = ast.Unparen(e)
	if !isMutexType(c.pass.TypesInfo.TypeOf(e)) {
		return nil
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(e)
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			return obj
		}
	case *ast.SelectorExpr:
		base, ok := e.X.(*ast.Ident)
		if !ok {
			return nil
		}
		baseObj := c.pass.TypesInfo.ObjectOf(base)
		if baseObj == nil {
			return nil
		}
		return fieldKey{base: baseObj, field: e.Sel.Name}
	}
	return nil
}

// isMutexType reports whether t is (a pointer to) sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
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

// isGuardedCall reports whether the call is a delivery method on a
// Sink/Observer-shaped receiver.
func isGuardedCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recvs := guardedMethods[sel.Sel.Name]
	if recvs == nil {
		return false
	}
	return recvs[typeNameOf(info, sel.X)]
}

// typeNameOf returns the named type of e (through pointers), or "".
func typeNameOf(info *types.Info, e ast.Expr) string {
	t := info.TypeOf(e)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
