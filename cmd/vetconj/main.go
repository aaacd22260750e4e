// Command vetconj is the repository's multichecker: it runs the custom
// static analyzers of internal/analysis over the packages matching the
// given patterns and exits non-zero when any finding survives.
//
// Usage:
//
//	vetconj ./...                     # the whole module
//	vetconj -only errfull,floateq ./internal/lockfree/...
//	vetconj -tests ./internal/core    # include in-package _test.go files
//	vetconj -json ./...               # machine-readable findings for CI
//	vetconj -list                     # describe the registered analyzers
//
// vetconj is a standalone driver rather than a `go vet -vettool` plugin on
// purpose: the vettool protocol needs golang.org/x/tools' per-unit driver,
// and this repository builds in hermetic environments with no module
// downloads. The driver loads and type-checks packages with the
// standard library only (see internal/analysis), so `go run ./cmd/vetconj`
// works anywhere the repository compiles.
//
// The analyzer set comes from internal/analysis/registry, which the
// self-check test (main_test.go) also consumes: an analyzer registered
// there is run by CI and simultaneously asserted clean over this tree.
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load failure.
// Findings suppressed with //lint:<name>-ok directives never reach the
// output and never affect the exit status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/registry"
)

func main() {
	var (
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		tests    = flag.Bool("tests", false, "also analyze in-package _test.go files")
		list     = flag.Bool("list", false, "list the registered analyzers and exit")
		jsonMode = flag.Bool("json", false, "emit findings as a JSON array of {file,line,col,analyzer,message}")
	)
	flag.Parse()

	suite := registry.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(suite, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetconj:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns, analysis.LoadOptions{Tests: *tests})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetconj:", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "vetconj: no packages matched", strings.Join(patterns, " "))
		os.Exit(2)
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetconj:", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	findings := render(pkgs, diags, cwd)
	if *jsonMode {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "vetconj:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vetconj: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

// A finding is one diagnostic in the machine-readable output. Only
// unsuppressed diagnostics become findings, so an empty array is the
// "clean" signal CI keys on.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// render resolves positions and relativises paths under cwd so CI
// annotations attach to workspace files.
func render(pkgs []*analysis.Package, diags []analysis.Diagnostic, cwd string) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		name := pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		out = append(out, finding{
			File:     name,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out
}

// writeJSON emits the findings array ([] when clean, never null), indented
// for readable CI logs.
func writeJSON(w io.Writer, findings []finding) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// selectAnalyzers filters the suite by the -only flag.
func selectAnalyzers(suite []*analysis.Analyzer, only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, names(suite))
		}
		out = append(out, a)
	}
	return out, nil
}

// names lists the registered analyzer names.
func names(suite []*analysis.Analyzer) string {
	var ns []string
	for _, a := range suite {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}
