package analysis

// Forward dataflow over the CFGs of cfg.go. The analyzer built on this
// (sinklock) fits one mould: a small scalar state per tracked fact (a
// mutex), a transfer function that updates states as statements execute,
// and a join that merges states where paths meet. Solving runs a standard
// Kildall worklist to a fixpoint; reporting then REPLAYS each reachable
// block from its fixpoint entry state, so diagnostics see exactly the
// merged state that actually holds at each node.
//
// The split matters: Transfer must be free of side effects because the
// solver re-runs blocks until convergence. All Reportf calls belong in the
// replay callback.

import "go/ast"

// FlowState maps tracked facts to a small scalar state. Keys are whatever
// the analyzer chooses (a *types.Var, a field path struct); an absent key
// reads as state 0, which every analyzer uses as its "untracked/bottom"
// value so states need no explicit initialisation.
type FlowState map[any]uint8

// Get returns the state of k (0 if untracked).
func (s FlowState) Get(k any) uint8 { return s[k] }

// Set records the state of k, deleting zero states to keep maps small.
func (s FlowState) Set(k any, v uint8) {
	if v == 0 {
		delete(s, k)
	} else {
		s[k] = v
	}
}

// Clone returns an independent copy.
func (s FlowState) Clone() FlowState {
	c := make(FlowState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// JoinMin is the join of must-analyses ("does this hold on EVERY path"):
// sinklock uses it, so a lock held on only one arm counts as not held
// after the merge.
func JoinMin(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

// A FlowProblem is one dataflow analysis over a function body.
type FlowProblem struct {
	// Transfer applies the effect of one CFG node to state, in place. It
	// runs repeatedly during solving and once more during replay, so it
	// must not report or otherwise side-effect.
	Transfer func(n ast.Node, state FlowState)
	// Join merges the states of two predecessors, per key; absent keys
	// join as 0.
	Join func(a, b uint8) uint8
}

// SolveFlow computes the fixpoint entry state of every block. The entry
// block starts empty (all facts 0). Unreachable blocks get a nil entry;
// replay skips them, which also keeps dead code out of the diagnostics.
func SolveFlow(g *CFG, p FlowProblem) []FlowState {
	entries := make([]FlowState, len(g.Blocks))
	entries[g.Entry.Index] = FlowState{}
	work := []*Block{g.Entry}
	inWork := make([]bool, len(g.Blocks))
	inWork[g.Entry.Index] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.Index] = false

		out := entries[b.Index].Clone()
		for _, n := range b.Nodes {
			p.Transfer(n, out)
		}
		for _, succ := range b.Succs {
			cur := entries[succ.Index]
			if cur == nil {
				// First visit: the successor's entry IS this out state.
				entries[succ.Index] = out.Clone()
			} else if !joinInto(cur, out, p.Join) {
				continue
			}
			if !inWork[succ.Index] {
				work = append(work, succ)
				inWork[succ.Index] = true
			}
		}
	}
	return entries
}

// joinInto merges src into dst per key (absent = 0) and reports whether dst
// changed.
func joinInto(dst, src FlowState, join func(a, b uint8) uint8) bool {
	changed := false
	for k, sv := range src {
		if nv := join(dst[k], sv); nv != dst[k] {
			dst.Set(k, nv)
			changed = true
		}
	}
	for k, dv := range dst {
		if _, ok := src[k]; ok {
			continue
		}
		if nv := join(dv, 0); nv != dv {
			dst.Set(k, nv)
			changed = true
		}
	}
	return changed
}

// ReplayFlow walks every reachable block from its fixpoint entry state and
// calls visit(n, state) BEFORE each node's transfer, so it sees the precise
// state in which n executes.
func ReplayFlow(g *CFG, p FlowProblem, entries []FlowState, visit func(n ast.Node, state FlowState)) {
	for _, b := range g.Blocks {
		entry := entries[b.Index]
		if entry == nil {
			continue // unreachable
		}
		state := entry.Clone()
		for _, n := range b.Nodes {
			visit(n, state)
			p.Transfer(n, state)
		}
	}
}
