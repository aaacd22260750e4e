package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a function declaration and returns it.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// exitKind classifies how control leaves a test body.
type exitKind int

const (
	exitReturn   exitKind = iota // an explicit return statement
	exitTerminal                 // a call that never returns (panic, os.Exit, log.Fatal*)
	exitFallOff                  // control reaches the end of the body
)

// exit is one way out of a test body with the state of variable "x" there.
type exit struct {
	kind exitKind
	x    uint8
}

// flowExits solves p over body and replays it, collecting every reachable
// exit in block order. The end of the body is made visible as a node by
// appending a sentinel call: it is visited exactly when control falls off.
func flowExits(t *testing.T, body string, p FlowProblem) []exit {
	t.Helper()
	g := BuildCFG(parseBody(t, body+"\n__end()"))
	var out []exit
	ReplayFlow(g, p, SolveFlow(g, p), func(n ast.Node, st FlowState) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			out = append(out, exit{exitReturn, st.Get("x")})
		case *ast.ExprStmt:
			if terminates(n) {
				out = append(out, exit{exitTerminal, st.Get("x")})
			} else if isCallTo(n.X, "__end") {
				out = append(out, exit{exitFallOff, st.Get("x")})
			}
		}
	})
	return out
}

// noFlow tracks nothing: solving it only computes reachability.
var noFlow = FlowProblem{Transfer: func(ast.Node, FlowState) {}, Join: JoinMin}

// exitsOf returns the kinds of the body's reachable exits, in block order.
func exitsOf(t *testing.T, body string) []exitKind {
	t.Helper()
	var kinds []exitKind
	for _, e := range flowExits(t, body, noFlow) {
		kinds = append(kinds, e.kind)
	}
	return kinds
}

func countKind(kinds []exitKind, k exitKind) int {
	n := 0
	for _, kk := range kinds {
		if kk == k {
			n++
		}
	}
	return n
}

func TestCFGStraightLineFallsOff(t *testing.T) {
	kinds := exitsOf(t, "x := 1; _ = x")
	if len(kinds) != 1 || kinds[0] != exitFallOff {
		t.Fatalf("want one fall-off exit, got %v", kinds)
	}
}

func TestCFGIfBranchExits(t *testing.T) {
	// The then-arm returns; the else path falls through to the end, so both
	// an explicit return and a fall-off exit must be visible.
	kinds := exitsOf(t, `
		x := 1
		if x > 0 {
			return
		}
		x++`)
	if countKind(kinds, exitReturn) != 1 || countKind(kinds, exitFallOff) != 1 {
		t.Fatalf("want 1 return + 1 fall-off, got %v", kinds)
	}
}

func TestCFGIfElseBothReturn(t *testing.T) {
	kinds := exitsOf(t, `
		x := 1
		if x > 0 {
			return
		} else {
			return
		}`)
	if countKind(kinds, exitReturn) != 2 || countKind(kinds, exitFallOff) != 0 {
		t.Fatalf("want 2 returns and no fall-off, got %v", kinds)
	}
}

func TestCFGPanicEdge(t *testing.T) {
	kinds := exitsOf(t, `
		x := 1
		if x > 0 {
			panic("boom")
		}`)
	if countKind(kinds, exitTerminal) != 1 || countKind(kinds, exitFallOff) != 1 {
		t.Fatalf("want 1 panic + 1 fall-off, got %v", kinds)
	}
}

func TestCFGProcessExit(t *testing.T) {
	kinds := exitsOf(t, `
		if true {
			os.Exit(2)
		}
		log.Fatalf("no")`)
	if countKind(kinds, exitTerminal) != 2 {
		t.Fatalf("want 2 process exits, got %v", kinds)
	}
	if countKind(kinds, exitFallOff) != 0 {
		t.Fatalf("log.Fatalf terminates; no fall-off expected, got %v", kinds)
	}
}

func TestCFGForLoopBackEdge(t *testing.T) {
	g := BuildCFG(parseBody(t, `
		for i := 0; i < 10; i++ {
			_ = i
		}`))
	// The loop head must be reachable from two directions: the entry and
	// the post block — i.e. some block other than the lexical predecessor
	// has an edge back to an earlier block.
	back := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index {
				back = true
			}
		}
	}
	if !back {
		t.Fatal("for loop produced no back edge")
	}
	kinds := exitsOf(t, `
		for i := 0; i < 10; i++ {
			_ = i
		}`)
	if countKind(kinds, exitFallOff) != 1 {
		t.Fatalf("conditional loop must fall off, got %v", kinds)
	}
}

func TestCFGInfiniteLoopNoFallOff(t *testing.T) {
	kinds := exitsOf(t, `
		for {
			_ = 1
		}`)
	if len(kinds) != 0 {
		t.Fatalf("for{} never exits, got %v", kinds)
	}
}

func TestCFGLoopBreakAndContinue(t *testing.T) {
	kinds := exitsOf(t, `
		for {
			if true {
				break
			}
			if false {
				continue
			}
			return
		}`)
	// break reaches the fall-off exit; return exits directly.
	if countKind(kinds, exitFallOff) != 1 || countKind(kinds, exitReturn) != 1 {
		t.Fatalf("want fall-off (via break) + return, got %v", kinds)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	kinds := exitsOf(t, `
	outer:
		for {
			for {
				break outer
			}
		}`)
	if countKind(kinds, exitFallOff) != 1 {
		t.Fatalf("labeled break must escape both loops, got %v", kinds)
	}
}

func TestCFGRangeLoop(t *testing.T) {
	kinds := exitsOf(t, `
		for _, v := range xs {
			if v == 0 {
				return
			}
		}`)
	if countKind(kinds, exitReturn) != 1 || countKind(kinds, exitFallOff) != 1 {
		t.Fatalf("want return-in-loop + fall-off, got %v", kinds)
	}
}

func TestCFGSwitchWithoutDefault(t *testing.T) {
	kinds := exitsOf(t, `
		switch x {
		case 1:
			return
		case 2:
			panic("two")
		}`)
	// No default: the tag block can skip every clause to the join.
	if countKind(kinds, exitReturn) != 1 || countKind(kinds, exitTerminal) != 1 || countKind(kinds, exitFallOff) != 1 {
		t.Fatalf("want return + panic + fall-off, got %v", kinds)
	}
}

func TestCFGSwitchAllClausesReturn(t *testing.T) {
	kinds := exitsOf(t, `
		switch x {
		case 1:
			return
		default:
			return
		}`)
	if countKind(kinds, exitFallOff) != 0 {
		t.Fatalf("exhaustive switch must not fall off, got %v", kinds)
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	// fallthrough jumps into the next clause even though case 2's test
	// would not match; both clauses' bodies are on the path from case 1.
	g := BuildCFG(parseBody(t, `
		switch x {
		case 1:
			fallthrough
		case 2:
			return
		}`))
	entries := SolveFlow(g, noFlow)
	reached := 0
	for _, e := range entries {
		if e != nil {
			reached++
		}
	}
	if reached != len(g.Blocks) {
		t.Fatalf("fallthrough left blocks unreachable: %d of %d reached", reached, len(g.Blocks))
	}
}

func TestCFGTypeSwitchAndSelect(t *testing.T) {
	kinds := exitsOf(t, `
		switch v := x.(type) {
		case int:
			_ = v
			return
		}
		select {
		case <-ch:
			return
		default:
		}`)
	if countKind(kinds, exitReturn) != 2 || countKind(kinds, exitFallOff) != 1 {
		t.Fatalf("want 2 returns + fall-off, got %v", kinds)
	}
}

func TestCFGGoto(t *testing.T) {
	kinds := exitsOf(t, `
		i := 0
	loop:
		i++
		if i < 3 {
			goto loop
		}`)
	if countKind(kinds, exitFallOff) != 1 {
		t.Fatalf("goto loop must still fall off when the condition fails, got %v", kinds)
	}
}

func TestCFGDeferIsAnOrdinaryNode(t *testing.T) {
	// Defer statements stay in their block as nodes (the analyzers model
	// their at-exit effect); the graph must not sprout extra exits.
	g := BuildCFG(parseBody(t, `
		defer cleanup()
		return`))
	defers := 0
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				defers++
			}
		}
	}
	if defers != 1 {
		t.Fatalf("want the defer as one CFG node, found %d", defers)
	}
	kinds := exitsOf(t, "defer cleanup()\nreturn")
	if len(kinds) != 1 || kinds[0] != exitReturn {
		t.Fatalf("want exactly the explicit return exit, got %v", kinds)
	}
}

func TestCFGDeadCodeUnreachable(t *testing.T) {
	g := BuildCFG(parseBody(t, `
		return
		x := 1
		_ = x`))
	entries := SolveFlow(g, noFlow)
	unreachable := 0
	for _, e := range entries {
		if e == nil {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Fatal("code after return should live in an unreachable block")
	}
}

func TestForEachFuncBodySeesLiterals(t *testing.T) {
	src := `package p
func a() { go func() { _ = func() {}  }() }
var v = func() int { return 1 }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	ForEachFuncBody(file, func(_ ast.Node, _ *ast.BlockStmt) { n++ })
	if n != 4 { // a, the goroutine literal, its inner literal, and v's initialiser
		t.Fatalf("want 4 function bodies, got %d", n)
	}
}

func TestInspectShallowSkipsFuncLit(t *testing.T) {
	body := parseBody(t, `
		x := 1
		f := func() { hidden() }
		_ = f`)
	var names []string
	InspectShallow(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			names = append(names, id.Name)
		}
		return true
	})
	joined := strings.Join(names, ",")
	if strings.Contains(joined, "hidden") {
		t.Fatalf("InspectShallow descended into a FuncLit body: %v", names)
	}
	if !strings.Contains(joined, "x") || !strings.Contains(joined, "f") {
		t.Fatalf("InspectShallow missed enclosing idents: %v", names)
	}
}
