// Package analysis is a dependency-free re-implementation of the core of
// golang.org/x/tools/go/analysis, tailored to this repository's vet suite
// (cmd/vetconj). It provides the Analyzer/Pass/Diagnostic vocabulary, a
// go-list-based package loader, and line-directive suppression
// ("//lint:<analyzer>-ok"), all built on the standard library's go/ast and
// go/types so the tooling works in hermetic build environments without any
// module downloads.
//
// The four repository-specific analyzers live in subpackages; the registry
// subpackage holds the canonical list. Each one has been shown to flag the
// bug it exists for when that bug is seeded into the real tree (DESIGN.md
// §7); an invariant a test or the type system already guards has no
// analyzer. Three are AST pattern-matchers:
//
//   - ctxfirst: exported functions must take context.Context first, and
//     context.TODO() is reserved for tests (cancellation plumbing).
//   - floateq: == / != on floating-point operands in orbital math.
//   - errfull: dropped errors from Insert/grow-shaped APIs
//     (lockfree.ErrFull must reach the caller).
//
// One is flow-sensitive, built on the CFG builder (cfg.go) and the
// worklist dataflow solver (dataflow.go) in this package:
//
//   - sinklock: Sink.Emit and Observer.OnStep/OnPhase must be dominated by
//     a mutex Lock on every path (the delivery-serialisation contract).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// An Analyzer describes one static check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the checks could migrate to the
// upstream driver without source changes.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// directives ("//lint:<name>-ok").
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass presents one package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives every unsuppressed diagnostic.
	report func(Diagnostic)
	// suppressed maps "file:line" to the set of analyzer names opted out at
	// that line via //lint:<name>-ok directives.
	suppressed map[string]map[string]bool
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding unless the source line (or the line immediately
// above it) carries a "//lint:<analyzer>-ok" opt-out directive.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		key := fmt.Sprintf("%s:%d", position.Filename, line)
		if p.suppressed[key][p.Analyzer.Name] {
			return
		}
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// directiveRE matches suppression directives. Several analyzers may be
// opted out on one line ("//lint:floateq-ok //lint:errfull-ok").
var directiveRE = regexp.MustCompile(`//\s*lint:([a-zA-Z0-9_]+)-ok\b`)

// suppressionIndex scans the files' comments for lint directives and returns
// the "file:line" → analyzer-name index consulted by Reportf.
func suppressionIndex(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	idx := make(map[string]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range directiveRE.FindAllStringSubmatch(c.Text, -1) {
					pos := fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					if idx[key] == nil {
						idx[key] = make(map[string]bool)
					}
					idx[key][m[1]] = true
				}
			}
		}
	}
	return idx
}

// Run applies each analyzer to each loaded package and returns every
// diagnostic, sorted by position. An analyzer returning an error aborts the
// run: analyzer bugs must not pass silently as "no findings".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		idx := suppressionIndex(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				suppressed: idx,
				report:     func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiagnostics(pkgs, diags)
	return diags, nil
}

// sortDiagnostics orders findings by file, line, column, then analyzer name.
func sortDiagnostics(pkgs []*Package, diags []Diagnostic) {
	fset := token.NewFileSet()
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
