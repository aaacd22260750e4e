// Package errfull flags call sites that discard the error result of
// insert/grow-shaped APIs. The lock-free structures in internal/lockfree
// report capacity exhaustion as lockfree.ErrFull, which the caller must
// act on (§V-B of the paper doubles the structure and retries; a delta pass
// fails). A dropped error there means silently missing conjunctions —
// stamps that were never recorded.
//
// A call is flagged when the callee's result list includes an error, the
// callee looks like an insertion or growth operation (its name starts with
// "insert" or "grow", case-insensitively, or it is declared in
// internal/lockfree), and the call site discards that error:
//
//   - the call is a bare expression statement;
//   - the error result is assigned to the blank identifier;
//   - the call runs as a `go` or `defer` statement, where the result is
//     unobservable.
//
// Intentional discards are annotated //lint:errfull-ok.
package errfull

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the errfull check.
var Analyzer = &analysis.Analyzer{
	Name: "errfull",
	Doc: "flag dropped errors from Insert/grow-shaped APIs; lockfree.ErrFull " +
		"must reach the caller",
	Run: run,
}

// guardedPkgSuffix marks the package whose error-returning APIs are always
// covered regardless of function name.
const guardedPkgSuffix = "internal/lockfree"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					check(pass, call, "result dropped")
				}
			case *ast.GoStmt:
				check(pass, stmt.Call, "error unobservable in go statement")
			case *ast.DeferStmt:
				check(pass, stmt.Call, "error unobservable in defer statement")
			case *ast.AssignStmt:
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				idx := errIndex(pass, call)
				if idx < 0 || idx >= len(stmt.Lhs) {
					return true
				}
				if id, ok := stmt.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
					check(pass, call, "error assigned to _")
				}
			}
			return true
		})
	}
	return nil
}

// check reports the call if it is a guarded callee whose error is discarded
// in the way described by how.
func check(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn := callee(pass, call)
	if fn == nil || errResultIndex(fn) < 0 || !guarded(fn) {
		return
	}
	pass.Reportf(call.Pos(),
		"%s from %s: %s; handle lockfree.ErrFull or annotate //lint:errfull-ok",
		"dropped error", fn.Name(), how)
}

// errIndex returns the index of the callee's error result for a guarded
// call, or -1.
func errIndex(pass *analysis.Pass, call *ast.CallExpr) int {
	fn := callee(pass, call)
	if fn == nil || !guarded(fn) {
		return -1
	}
	return errResultIndex(fn)
}

// callee resolves the called function or method, or nil for indirect calls,
// built-ins, and conversions.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn
}

// guarded reports whether the function is one whose errors this analyzer
// protects: insert/grow-shaped names anywhere, or anything declared in the
// lock-free package.
func guarded(fn *types.Func) bool {
	name := strings.ToLower(fn.Name())
	if strings.HasPrefix(name, "insert") || strings.HasPrefix(name, "grow") {
		return true
	}
	return fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), guardedPkgSuffix)
}

// errResultIndex returns the position of the first error in the function's
// result list, or -1 when it returns none.
func errResultIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return i
		}
	}
	return -1
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
