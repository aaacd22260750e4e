// Package registry is the single list of the repository's analyzers. Both
// the cmd/vetconj driver and the self-check test consume it, so an analyzer
// added here is automatically run by CI and asserted clean over the tree —
// registration cannot drift between the two.
package registry

import (
	"repro/internal/analysis"
	"repro/internal/analysis/ctxfirst"
	"repro/internal/analysis/errfull"
	"repro/internal/analysis/floateq"
	"repro/internal/analysis/sinklock"
)

// All returns every registered analyzer in reporting order: the AST-pattern
// checks, then the flow-sensitive one built on the CFG/dataflow layer.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxfirst.Analyzer,
		errfull.Analyzer,
		floateq.Analyzer,
		sinklock.Analyzer,
	}
}
