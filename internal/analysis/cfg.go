package analysis

// Control-flow graphs over go/ast function bodies — the substrate of the
// flow-sensitive analyzer (sinklock). This is a dependency-free sibling of
// golang.org/x/tools/go/cfg, reduced to what a forward dataflow pass needs:
// basic blocks of statements in execution order, successor edges for every
// branching construct (if/for/range/switch/type-switch/select,
// break/continue/goto/fallthrough, labels), and blocks that end where
// control leaves the function — a return statement or a terminating call
// (panic, os.Exit, log.Fatal*).
//
// Defer statements are NOT expanded into exit edges here: they appear as
// ordinary *ast.DeferStmt nodes in their block, and the dataflow layer
// models their effect in its transfer functions. That keeps the graph small
// and the defer semantics where the analyzers can interpret them
// per-invariant.
//
// Function literals are opaque: a statement containing a FuncLit is one
// node of the enclosing function's graph, and the literal's body gets its
// own CFG via ForEachFuncBody. Analyzers that care about captures inspect
// the literal's body themselves (see InspectShallow).

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: nodes that execute in order with no branch
// between them, followed by zero or more successor edges. Nodes are
// statements plus the condition/tag expressions of the construct that ends
// the block (an if condition is a node of the block that branches on it).
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
}

// terminates reports whether the expression statement is a call that never
// returns (panic, os.Exit, log.Fatal*, runtime.Goexit). Matching is by name
// (panic may in principle be shadowed; a linter accepts that).
func terminates(stmt *ast.ExprStmt) bool {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "os":
			return fun.Sel.Name == "Exit"
		case "log":
			return fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"
		case "runtime":
			return fun.Sel.Name == "Goexit"
		}
	}
	return false
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*Block),
	}
	b.cfg.Entry = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	return b.cfg
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminal statement
	// (return/panic/branch), meaning subsequent code is unreachable until a
	// new block starts (a label, or a construct's join block).
	cur *Block
	// targets stacks the enclosing for/switch/select constructs, innermost
	// last, for break/continue resolution.
	targets []target
	// fallthroughTo stacks the next case clause's block inside switches.
	fallthroughTo []*Block
	// labels maps label names to their blocks (created on first mention, by
	// either the labeled statement or a goto).
	labels map[string]*Block
	// pendingLabel carries a label name to the loop/switch statement it
	// prefixes, so labeled break/continue resolve.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge adds from → to (nil-safe: no edge from unreachable code).
func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block, reviving an unreachable region
// as a fresh predecessor-less block (its nodes exist but never execute; the
// dataflow driver skips blocks the solver never reaches).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// labelBlock returns (creating on demand) the block a label names.
func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// takeLabel consumes the pending label for the construct consuming it.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		var elseEntry *Block
		if s.Else != nil {
			elseEntry = b.newBlock()
			b.edge(cond, elseEntry)
		} else {
			b.edge(cond, after)
		}
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, after)
		if s.Else != nil {
			b.cur = elseEntry
			b.stmt(s.Else)
			b.edge(b.cur, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
			continueTo = post
		}
		b.targets = append(b.targets, target{label: label, breakTo: after, continueTo: continueTo})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, continueTo)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		// Only the ranged expression is a node here: adding the whole
		// RangeStmt would drag the body's statements into the head block and
		// double-process them.
		b.add(s.X)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.targets = append(b.targets, target{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body.List, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		entry := b.cur
		if entry == nil {
			entry = b.newBlock()
			b.cur = entry
		}
		after := b.newBlock()
		b.targets = append(b.targets, target{label: label, breakTo: after})
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(entry, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.edge(b.cur, after)
		}
		b.targets = b.targets[:len(b.targets)-1]
		if len(s.Body.List) == 0 {
			// select{} blocks forever; after is unreachable.
			b.cur = nil
			return
		}
		b.cur = after

	case *ast.LabeledStmt:
		blk := b.labelBlock(s.Label.Name)
		b.edge(b.cur, blk)
		b.cur = blk
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(labelName(s.Label), false); t != nil {
				b.edge(b.cur, t.breakTo)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findTarget(labelName(s.Label), true); t != nil {
				b.edge(b.cur, t.continueTo)
			}
			b.cur = nil
		case token.GOTO:
			b.edge(b.cur, b.labelBlock(s.Label.Name))
			b.cur = nil
		case token.FALLTHROUGH:
			if n := len(b.fallthroughTo); n > 0 && b.fallthroughTo[n-1] != nil {
				b.edge(b.cur, b.fallthroughTo[n-1])
			}
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if terminates(s) {
			b.cur = nil
		}

	default:
		// Assign, Decl, IncDec, Defer, Go, Send, Empty: straight-line nodes.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// caseClauses builds the shared switch/type-switch clause structure: the
// entry block branches to every clause (and to after when no default
// exists); fallthrough jumps to the lexically next clause.
func (b *cfgBuilder) caseClauses(label string, list []ast.Stmt, _ *Block) {
	entry := b.cur
	if entry == nil {
		entry = b.newBlock()
		b.cur = entry
	}
	after := b.newBlock()
	blocks := make([]*Block, len(list))
	hasDefault := false
	for i, cs := range list {
		blocks[i] = b.newBlock()
		b.edge(entry, blocks[i])
		if cc, ok := cs.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(entry, after)
	}
	b.targets = append(b.targets, target{label: label, breakTo: after})
	for i, cs := range list {
		cc := cs.(*ast.CaseClause)
		next := (*Block)(nil)
		if i+1 < len(list) {
			next = blocks[i+1]
		}
		b.fallthroughTo = append(b.fallthroughTo, next)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e) // the case expressions, not the clause body
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
		b.fallthroughTo = b.fallthroughTo[:len(b.fallthroughTo)-1]
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = after
}

// findTarget resolves a break (wantContinue=false) or continue target,
// optionally by label; nil for malformed code (the type checker rejects it
// anyway, so the graph just drops the edge).
func (b *cfgBuilder) findTarget(label string, wantContinue bool) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if wantContinue && t.continueTo == nil {
			continue
		}
		if label == "" || t.label == label {
			return t
		}
	}
	return nil
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// ForEachFuncBody invokes fn for every function body in the file — named
// declarations and every function literal, however nested. Each body is an
// independent unit for the flow-sensitive analyzers.
func ForEachFuncBody(file *ast.File, fn func(decl ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n, n.Body)
			}
		case *ast.FuncLit:
			fn(n, n.Body)
		}
		return true
	})
}

// InspectShallow walks n in depth-first order like ast.Inspect but does not
// descend into function literal bodies: a statement that builds a closure
// is inspected as one node of the enclosing function, and the closure's
// body belongs to its own CFG.
func InspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}
