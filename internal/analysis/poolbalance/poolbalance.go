// Package poolbalance proves, per function, that every resource checked out
// of a Pool reaches the matching Put on every exit path. The screening
// kernels stay near-zero-alloc (§IV of the paper) only because internal/pool
// recycles stamp tables, pair sets, cell and state buffers, and scratch indices;
// a Get without a Put on some early-return or panic edge is a silent leak
// that pool.Stats.Outstanding only catches at runtime, in whichever test
// happens to drive that path.
//
// The analyzer runs the shared CFG/dataflow layer (internal/analysis cfg.go,
// dataflow.go) as a may-analysis: a resource is born live at
// `x := p.Get<Kind>(…)`, becomes released at `p.Put<Kind>(x)`, deferred at
// `defer p.Put<Kind>(x)` (which covers returns AND panic edges), and escaped
// when ownership demonstrably transfers out of the function — the value is
// returned, stored into a field, struct literal, or slice/map, passed to a
// non-Put call, sent on a channel, captured by a function literal, or has
// its address taken. Any exit (return, panic, or fall-off) reached while the
// resource is still live is reported at the Get site. Process-terminating
// exits (os.Exit, log.Fatal*) are exempt: the pool dies with the process.
//
// Matching is by shape, not import path, so the same rules govern
// internal/pool.Pool and sync.Pool (whose Get/Put pair has an empty kind
// suffix): a method Get<Kind>/Put<Kind> on a named receiver type `Pool`.
// Two flow-insensitive companions ride along: a Get whose result is
// discarded (bare expression statement or assigned to _) is always a leak,
// and a Put whose kind differs from the kind that produced the value (e.g.
// PutBitset of a GetKeyBuf result — both []uint64, so the type system is
// silent) is a cross-pool corruption.
//
// Intentional ownership transfers that the escape rules cannot see are
// annotated //lint:poolbalance-ok with a justification.
package poolbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the poolbalance check.
var Analyzer = &analysis.Analyzer{
	Name: "poolbalance",
	Doc: "every pool.Get<Kind> must reach the matching Put<Kind>, an ownership " +
		"escape, or a deferred release on every exit path, including panic edges",
	Run: run,
}

// Resource states, ordered so the max-join keeps the worst path: a resource
// live on ANY path into a merge point is live after it.
const (
	stReleased = 1 // Put<Kind> executed
	stDeferred = 2 // defer Put<Kind> armed; covers every later exit
	stEscaped  = 3 // ownership left the function
	stLive     = 4 // checked out, not yet released or escaped
)

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		checkDiscards(pass, file)
		analysis.ForEachFuncBody(file, func(_ ast.Node, body *ast.BlockStmt) {
			checkFunc(pass, body)
		})
	}
	return nil
}

// checkDiscards flags Get results that are thrown away — a leak on every
// path, no flow analysis needed.
func checkDiscards(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if kind, isGet := poolCall(pass.TypesInfo, n.X); isGet {
				pass.Reportf(n.Pos(), "result of Get%s is discarded: the pooled value leaks immediately", kind)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				kind, isGet := poolCall(pass.TypesInfo, unwrap(rhs))
				if !isGet || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(rhs.Pos(), "result of Get%s is assigned to _: the pooled value leaks immediately", kind)
				}
			}
		}
		return true
	})
}

// binding is the flow-insensitive record of one tracked resource variable.
type binding struct {
	name   string
	getPos token.Pos
	kinds  map[string]bool // Get kinds ever bound to this variable
}

type checker struct {
	pass     *analysis.Pass
	bindings map[types.Object]*binding
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass, bindings: map[types.Object]*binding{}}
	c.collectBindings(body)
	if len(c.bindings) == 0 {
		return
	}
	g := analysis.BuildCFG(body)
	problem := analysis.FlowProblem{Transfer: c.transfer, Join: analysis.JoinMax}
	entries := analysis.SolveFlow(g, problem)
	reported := map[types.Object]bool{}
	analysis.ReplayFlow(g, problem, entries, c.visit,
		func(pos token.Pos, kind analysis.ExitKind, st analysis.FlowState) {
			if kind == analysis.ExitProcess {
				return // os.Exit/log.Fatal*: the pool dies with the process
			}
			for obj, b := range c.bindings {
				if st.Get(obj) != stLive || reported[obj] {
					continue
				}
				reported[obj] = true
				exitLine := pass.Fset.Position(pos).Line
				pass.Reportf(b.getPos,
					"%s from Get%s may not reach Put%s on the %s path at line %d; release it, defer the Put, or annotate //lint:poolbalance-ok",
					b.name, oneKind(b.kinds), oneKind(b.kinds), exitName(kind), exitLine)
			}
		})
}

// collectBindings records every variable directly bound to a Get result in
// this body (function literals are separate units), then propagates through
// plain `y := x` aliases so a moved resource keeps its kind set.
func (c *checker) collectBindings(body *ast.BlockStmt) {
	record := func(lhs ast.Expr, rhs ast.Expr) {
		kind, isGet := poolCall(c.pass.TypesInfo, unwrap(rhs))
		if !isGet {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := objOf(c.pass.TypesInfo, id)
		if obj == nil {
			return
		}
		b := c.bindings[obj]
		if b == nil {
			b = &binding{name: id.Name, getPos: rhs.Pos(), kinds: map[string]bool{}}
			c.bindings[obj] = b
		}
		b.kinds[kind] = true
	}
	analysis.InspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Values {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	// Alias propagation: `y := x` moves the resource, so y inherits x's
	// kinds. One forward pass covers the straight-line chains that occur in
	// practice.
	analysis.InspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			src, ok := as.Rhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			srcObj := objOf(c.pass.TypesInfo, src)
			sb := c.bindings[srcObj]
			if sb == nil {
				continue
			}
			dst, ok := as.Lhs[i].(*ast.Ident)
			if !ok || dst.Name == "_" {
				continue
			}
			dstObj := objOf(c.pass.TypesInfo, dst)
			if dstObj == nil || c.bindings[dstObj] != nil {
				continue
			}
			c.bindings[dstObj] = &binding{name: dst.Name, getPos: sb.getPos, kinds: sb.kinds}
		}
		return true
	})
}

// transfer applies one CFG node's effect: births, releases, defers, moves,
// and escapes. It must stay side-effect free — reporting happens in replay.
func (c *checker) transfer(n ast.Node, st analysis.FlowState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Rhs {
				c.transferAssign(n.Lhs[i], n.Rhs[i], st)
			}
			return
		}
		for _, rhs := range n.Rhs {
			c.scanEscapes(rhs, st)
		}

	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Names) != len(vs.Values) {
				continue
			}
			for i := range vs.Values {
				c.transferAssign(vs.Names[i], vs.Values[i], st)
			}
		}

	case *ast.DeferStmt:
		c.transferDefer(n, st)

	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if obj := c.trackedIdent(res); obj != nil {
				escape(st, obj)
				continue
			}
			c.scanEscapes(res, st)
		}

	default:
		c.scanEscapes(n, st)
	}
}

// transferAssign handles one lhs←rhs pair: a Get birth, an alias move, or a
// generic RHS whose escapes must be scanned.
func (c *checker) transferAssign(lhs, rhs ast.Expr, st analysis.FlowState) {
	if _, isGet := poolCall(c.pass.TypesInfo, unwrap(rhs)); isGet {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			if obj := objOf(c.pass.TypesInfo, id); c.bindings[obj] != nil {
				st.Set(obj, stLive)
				return
			}
		}
		// Get bound to a field, index, or blank: ownership transfers (or the
		// discard check already flagged it); nothing to track.
		return
	}
	if srcObj := c.trackedIdent(rhs); srcObj != nil {
		// `y := x` is a move: the resource now answers to y.
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			if dstObj := objOf(c.pass.TypesInfo, id); dstObj != nil {
				st.Set(dstObj, st.Get(srcObj))
				st.Set(srcObj, 0)
				return
			}
		}
		// Stored into a field, slice, or map: ownership escapes.
		escape(st, srcObj)
		return
	}
	c.scanEscapes(rhs, st)
}

// transferDefer arms deferred releases: `defer p.Put<Kind>(x)` directly, or
// Put calls inside a deferred closure. Any other deferred use of a live
// resource is an escape (the value outlives this analysis's view).
func (c *checker) transferDefer(n *ast.DeferStmt, st analysis.FlowState) {
	if _, isPut := putCall(c.pass.TypesInfo, n.Call); isPut {
		for _, arg := range n.Call.Args {
			if obj := c.trackedIdent(arg); obj != nil {
				st.Set(obj, stDeferred)
			}
		}
		return
	}
	if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, isPut := putCall(c.pass.TypesInfo, call); !isPut {
				return true
			}
			for _, arg := range call.Args {
				if obj := c.trackedIdent(arg); obj != nil {
					st.Set(obj, stDeferred)
				}
			}
			return true
		})
		return
	}
	c.scanEscapes(n.Call, st)
}

// scanEscapes walks n (without entering nested statements' FuncLit bodies
// except to detect captures) and applies release/escape effects:
//
//   - Put<Kind>(x) releases x;
//   - x as an argument of any other call escapes (receivers do not:
//     x.Insert(…) keeps ownership here);
//   - &x, composite-literal elements, channel sends, and closure captures
//     escape;
//   - bare identifier uses in arithmetic, comparisons, selectors, or index
//     expressions do not.
func (c *checker) scanEscapes(n ast.Node, st analysis.FlowState) {
	if n == nil {
		return
	}
	analysis.InspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if _, isPut := putCall(c.pass.TypesInfo, m); isPut {
				for _, arg := range m.Args {
					if obj := c.trackedIdent(arg); obj != nil {
						st.Set(obj, stReleased)
						continue
					}
					// A wrapped resource (conversion, slice expression)
					// handed to a Put leaves this function's custody.
					c.escapeIdentsIn(arg, st)
				}
				return false
			}
			if isBuiltinCall(c.pass.TypesInfo, m) {
				// len/cap/copy and friends read the value without taking
				// ownership; only scan nested expressions.
				for _, arg := range m.Args {
					c.scanEscapes(arg, st)
				}
				return false
			}
			for _, arg := range m.Args {
				if obj := c.trackedIdent(arg); obj != nil {
					escape(st, obj)
					continue
				}
				c.scanEscapes(arg, st)
			}
			// Do not treat the receiver (m.Fun's selector base) as escaping,
			// but do scan nested calls inside it.
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
				if _, isIdent := sel.X.(*ast.Ident); !isIdent {
					c.scanEscapes(sel.X, st)
				}
			}
			return false
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				c.escapeIdentsIn(m.X, st)
				return false
			}
		case *ast.CompositeLit:
			for _, elt := range m.Elts {
				c.escapeIdentsIn(elt, st)
			}
			return false
		case *ast.SendStmt:
			c.escapeIdentsIn(m.Value, st)
			c.scanEscapes(m.Chan, st)
			return false
		case *ast.FuncLit:
			// A closure capturing the resource may release or retain it on
			// its own schedule; either way this function no longer proves
			// the balance, so the capture is an escape.
			ast.Inspect(m.Body, func(k ast.Node) bool {
				if id, ok := k.(*ast.Ident); ok {
					if obj := objOf(c.pass.TypesInfo, id); obj != nil && c.bindings[obj] != nil {
						escape(st, obj)
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// escapeIdentsIn escapes every tracked identifier appearing anywhere in e.
func (c *checker) escapeIdentsIn(e ast.Expr, st analysis.FlowState) {
	ast.Inspect(e, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := objOf(c.pass.TypesInfo, id); obj != nil && c.bindings[obj] != nil {
				escape(st, obj)
			}
		}
		return true
	})
}

// visit reports kind mismatches during replay: Put<A> applied to a value
// produced by Get<B>. The pools share element types ([]uint64 backs both
// KeyBuf and Bitset), so only the names distinguish them.
func (c *checker) visit(n ast.Node, _ analysis.FlowState) {
	analysis.InspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		putKind, isPut := putCall(c.pass.TypesInfo, call)
		if !isPut {
			return true
		}
		for _, arg := range call.Args {
			obj := c.trackedIdent(arg)
			if obj == nil {
				continue
			}
			b := c.bindings[obj]
			if !b.kinds[putKind] {
				c.pass.Reportf(call.Pos(),
					"Put%s recycles %s, which was produced by Get%s: cross-pool recycling corrupts both free lists",
					putKind, b.name, oneKind(b.kinds))
			}
		}
		return true
	})
}

// trackedIdent returns the object of e when e is (possibly parenthesised) a
// plain identifier bound to a pool resource in this function.
func (c *checker) trackedIdent(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := objOf(c.pass.TypesInfo, id)
	if obj == nil || c.bindings[obj] == nil {
		return nil
	}
	return obj
}

// escape marks a live resource as transferred; released or deferred
// resources are unaffected (passing an already-deferred buffer to a reader
// does not undo its release).
func escape(st analysis.FlowState, obj types.Object) {
	if st.Get(obj) == stLive {
		st.Set(obj, stEscaped)
	}
}

// poolCall reports whether e is a Get<kind> call on a receiver whose named
// type is `Pool`. Matching by shape rather than import path makes the same
// rules govern internal/pool.Pool and sync.Pool (empty kind suffix).
func poolCall(info *types.Info, e ast.Expr) (kind string, isGet bool) {
	kind, isGet, ok := classifyPoolCall(info, e)
	if !ok || !isGet {
		return "", false
	}
	return kind, true
}

func classifyPoolCall(info *types.Info, e ast.Expr) (kind string, isGet, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", false, false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", false, false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Name() != "Pool" {
		return "", false, false
	}
	name := fn.Name()
	switch {
	case strings.HasPrefix(name, "Get"):
		return name[len("Get"):], true, true
	case strings.HasPrefix(name, "Put"):
		return name[len("Put"):], false, true
	}
	return "", false, false
}

// putCall reports whether e is a Put<kind> call on a Pool receiver.
func putCall(info *types.Info, e ast.Expr) (kind string, isPut bool) {
	kind, isGet, ok := classifyPoolCall(info, e)
	if !ok || isGet {
		return "", false
	}
	return kind, true
}

// isBuiltinCall reports whether the call invokes a built-in (len, cap,
// append, copy, panic, …) or a type conversion's underlying type name —
// neither takes ownership of pooled arguments.
func isBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	switch info.Uses[id].(type) {
	case *types.Builtin:
		return true
	}
	return false
}

// unwrap strips parentheses and type assertions so
// `pool.Get().(*scratch)` classifies as the Get call it wraps.
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch w := e.(type) {
		case *ast.ParenExpr:
			e = w.X
		case *ast.TypeAssertExpr:
			e = w.X
		default:
			return e
		}
	}
}

// objOf resolves an identifier to its object, whether the identifier
// defines it (`:=`) or uses it (`=`).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// oneKind renders a binding's kind set for messages (a single kind in all
// real code; sorted-joined if a variable was rebound across pools).
func oneKind(kinds map[string]bool) string {
	if len(kinds) == 1 {
		for k := range kinds {
			return k
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

func exitName(kind analysis.ExitKind) string {
	switch kind {
	case analysis.ExitReturn:
		return "return"
	case analysis.ExitPanic:
		return "panic"
	case analysis.ExitFallOff:
		return "fall-through"
	}
	return "exit"
}
