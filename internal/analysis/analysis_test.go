package analysis

import "testing"

func TestLoadDirAndSuppression(t *testing.T) {
	// The sinklock fixture exercises LoadDir, the suppression index, and
	// diagnostic sorting end to end; here we only assert the plumbing loads
	// and type-checks a fixture package with stdlib imports.
	pkg, err := LoadDir("sinklock/testdata/src/a", "a")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.Types.Name() != "a" {
		t.Fatalf("package name = %q, want a", pkg.Types.Name())
	}
	idx := suppressionIndex(pkg.Fset, pkg.Files)
	found := false
	for _, analyzers := range idx {
		if analyzers["sinklock"] {
			found = true
		}
	}
	if !found {
		t.Fatalf("suppression index missed the //lint:sinklock-ok directive")
	}
}
