package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/registry"
)

// TestVetconjSelfCheck runs the full registered suite over the repository
// itself — the same invocation CI performs — and fails on any unsuppressed
// diagnostic. This is the acceptance gate for every analyzer: a finding
// here means either a real invariant violation to fix or a missing
// //lint:<name>-ok justification.
func TestVetconjSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.Load([]string{"./..."}, analysis.LoadOptions{Dir: "../.."})
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from module root")
	}
	diags, err := analysis.Run(pkgs, registry.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestLoadSubsetClosure loads a single deep package rather than ./... —
// the -only/-subset workflow DESIGN.md §7 documents. The loader must pull
// the package's module-internal dependency closure into the shared type
// universe; before closeOverDeps, those deps resolved through the
// source-based fallback importer and its private stdlib instances made
// values like time.Time incompatible with themselves.
func TestLoadSubsetClosure(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a dependency closure")
	}
	pkgs, err := analysis.Load([]string{"./internal/httpapi"}, analysis.LoadOptions{Dir: "../.."})
	if err != nil {
		t.Fatalf("loading subset: %v", err)
	}
	// Only the requested package is analyzed; its closure stays internal.
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/httpapi" {
		paths := make([]string, 0, len(pkgs))
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		t.Fatalf("got packages %v, want exactly repro/internal/httpapi", paths)
	}
}

// TestRegistryComplete pins the suite: adding an analyzer without
// registering it (or dropping one) must fail loudly, not silently shrink
// CI coverage.
func TestRegistryComplete(t *testing.T) {
	want := []string{"ctxfirst", "errfull", "floateq", "sinklock"}
	got := registry.All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc string", a.Name)
		}
	}
}

// TestJSONOutput checks the machine-readable encoding CI annotates from.
func TestJSONOutput(t *testing.T) {
	var sb strings.Builder
	err := writeJSON(&sb, []finding{
		{File: "internal/core/grid.go", Line: 641, Col: 2, Analyzer: "sinklock", Message: "unlocked"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var decoded []finding
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(decoded) != 1 || decoded[0].Analyzer != "sinklock" || decoded[0].Line != 641 {
		t.Fatalf("round-trip mismatch: %+v", decoded)
	}
}

// TestJSONEmptyIsArray pins the "clean" signal: an empty run must encode as
// [], not null, so consumers can key on array length without nil checks.
func TestJSONEmptyIsArray(t *testing.T) {
	var sb strings.Builder
	if err := writeJSON(&sb, []finding{}); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("clean output must be [], got %q", sb.String())
	}
}

// TestSelectAnalyzers covers the -only filter, including the error path.
func TestSelectAnalyzers(t *testing.T) {
	suite := registry.All()
	picked, err := selectAnalyzers(suite, "sinklock, errfull")
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 2 || picked[0].Name != "sinklock" || picked[1].Name != "errfull" {
		t.Fatalf("unexpected selection: %+v", picked)
	}
	if _, err := selectAnalyzers(suite, "nosuch"); err == nil {
		t.Fatal("unknown analyzer name must error")
	}
}
