package analysis

import (
	"go/ast"
	"testing"
)

// The tests drive the solver with a miniature resource problem: `x := get()`
// makes x live (1), `put(x)` releases it (0), `defer put(x)` arms a deferred
// release (2). Keys are variable names, which is enough on single-scope
// test bodies.
const (
	tstLive     = 1
	tstDeferred = 2
)

func toyTransfer(n ast.Node, state FlowState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if isCallTo(n.Rhs[0], "get") {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					state.Set(id.Name, tstLive)
				}
			}
		}
	case *ast.ExprStmt:
		if arg, ok := callArgOf(n.X, "put"); ok {
			state.Set(arg, 0)
		}
		if arg, ok := callArgOf(n.X, "lock"); ok {
			state.Set(arg, tstLive)
		}
		if arg, ok := callArgOf(n.X, "unlock"); ok {
			state.Set(arg, 0)
		}
	case *ast.DeferStmt:
		if len(n.Call.Args) == 1 {
			if fn, ok := n.Call.Fun.(*ast.Ident); ok && fn.Name == "put" {
				if id, ok := n.Call.Args[0].(*ast.Ident); ok {
					state.Set(id.Name, tstDeferred)
				}
			}
		}
	}
}

func isCallTo(e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == name
}

func callArgOf(e ast.Expr, name string) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || !isCallTo(e, name) || len(call.Args) != 1 {
		return "", false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

// joinMax is the join of a may-analysis ("did this happen on SOME path"):
// a resource live on one arm of a branch stays live at the merge. No
// analyzer in the tree needs it; the solver tests do, to cover both lattice
// directions.
func joinMax(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}

// exitStates runs the toy problem and returns, per exit, the kind and the
// state of variable "x" at that exit.
func exitStates(t *testing.T, body string, join func(a, b uint8) uint8) []exit {
	t.Helper()
	return flowExits(t, body, FlowProblem{Transfer: toyTransfer, Join: join})
}

func TestFlowStraightLineRelease(t *testing.T) {
	exits := exitStates(t, `
		x := get()
		put(x)`, joinMax)
	if len(exits) != 1 || exits[0].x != 0 {
		t.Fatalf("released resource must be 0 at exit, got %+v", exits)
	}
}

func TestFlowBranchLeakSurvivesJoinMax(t *testing.T) {
	// Released on the then-arm only: under may-analysis the merge keeps the
	// live state, so the exit still sees the leak.
	exits := exitStates(t, `
		x := get()
		if cond {
			put(x)
		}`, joinMax)
	if len(exits) != 1 || exits[0].x != tstLive {
		t.Fatalf("leak on one arm must survive a max-join, got %+v", exits)
	}
}

func TestFlowBothArmsReleaseIsClean(t *testing.T) {
	exits := exitStates(t, `
		x := get()
		if cond {
			put(x)
		} else {
			put(x)
		}`, joinMax)
	if len(exits) != 1 || exits[0].x != 0 {
		t.Fatalf("release on both arms must merge to 0, got %+v", exits)
	}
}

func TestFlowEarlyReturnSeesOwnState(t *testing.T) {
	exits := exitStates(t, `
		x := get()
		if cond {
			return
		}
		put(x)`, joinMax)
	if len(exits) != 2 {
		t.Fatalf("want 2 exits, got %+v", exits)
	}
	for _, e := range exits {
		switch e.kind {
		case exitReturn:
			if e.x != tstLive {
				t.Fatalf("early return must still see the live resource, got %+v", e)
			}
		case exitFallOff:
			if e.x != 0 {
				t.Fatalf("fall-off after put must be clean, got %+v", e)
			}
		}
	}
}

func TestFlowMustAnalysisJoinMin(t *testing.T) {
	// Lock acquired on one arm only: a must-analysis merges to "not held".
	exits := exitStates(t, `
		if cond {
			lock(x)
		}`, JoinMin)
	if len(exits) != 1 || exits[0].x != 0 {
		t.Fatalf("min-join must drop a one-arm lock, got %+v", exits)
	}
	// Acquired on both arms: held after the merge.
	exits = exitStates(t, `
		if cond {
			lock(x)
		} else {
			lock(x)
		}`, JoinMin)
	if len(exits) != 1 || exits[0].x != tstLive {
		t.Fatalf("min-join must keep a both-arms lock, got %+v", exits)
	}
}

func TestFlowLoopFixpoint(t *testing.T) {
	// The put happens only inside a conditional in the loop body; the
	// zero-iteration path and the not-taken path keep the resource live, so
	// the fixpoint at the exit must be live under max-join — and the solver
	// must terminate despite the back edge.
	exits := exitStates(t, `
		x := get()
		for i := 0; i < n; i++ {
			if cond {
				put(x)
			}
		}`, joinMax)
	if len(exits) != 1 || exits[0].x != tstLive {
		t.Fatalf("conditional release in a loop must stay live at exit, got %+v", exits)
	}
}

func TestFlowLoopReacquire(t *testing.T) {
	// get/put balanced inside the loop body: every path through the body
	// ends released, so the exit is clean.
	exits := exitStates(t, `
		for i := 0; i < n; i++ {
			x := get()
			put(x)
		}`, joinMax)
	if len(exits) != 1 || exits[0].x != 0 {
		t.Fatalf("balanced loop body must exit clean, got %+v", exits)
	}
}

func TestFlowDeferCoversAllExits(t *testing.T) {
	// A deferred release covers the early return, the panic edge, and the
	// fall-off: every exit must see the deferred state, not live.
	exits := exitStates(t, `
		x := get()
		defer put(x)
		if a {
			return
		}
		if b {
			panic("boom")
		}`, joinMax)
	if len(exits) != 3 {
		t.Fatalf("want return + panic + fall-off, got %+v", exits)
	}
	for _, e := range exits {
		if e.x != tstDeferred {
			t.Fatalf("exit %v must see the deferred release, got state %d", e.kind, e.x)
		}
	}
}

func TestFlowPanicEdgeSeesLeak(t *testing.T) {
	// No defer: the panic edge leaks even though the happy path releases.
	exits := exitStates(t, `
		x := get()
		if bad {
			panic("boom")
		}
		put(x)`, joinMax)
	var sawPanic bool
	for _, e := range exits {
		if e.kind == exitTerminal {
			sawPanic = true
			if e.x != tstLive {
				t.Fatalf("panic edge must see the live resource, got %+v", e)
			}
		}
		if e.kind == exitFallOff && e.x != 0 {
			t.Fatalf("happy path must be clean, got %+v", e)
		}
	}
	if !sawPanic {
		t.Fatalf("no panic exit reported: %+v", exits)
	}
}

func TestFlowStateSetDeletesZero(t *testing.T) {
	s := FlowState{}
	s.Set("a", 3)
	s.Set("a", 0)
	if len(s) != 0 {
		t.Fatalf("zero states must be deleted, got %v", s)
	}
}

func TestFlowCloneIsIndependent(t *testing.T) {
	s := FlowState{"a": 1}
	c := s.Clone()
	c.Set("a", 2)
	if s.Get("a") != 1 {
		t.Fatal("Clone must not alias the source map")
	}
}
