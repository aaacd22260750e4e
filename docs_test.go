package satconj

// The documents name code: tests, files, packages and DESIGN.md's own
// sections. A rename that leaves a stale name behind fails here, not in a
// reader's search.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z_][A-Za-z0-9_]*(?:\{[A-Za-z0-9_,]*\}[A-Za-z0-9_]*)?`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
	goFile      = regexp.MustCompile(`[A-Za-z0-9_./{},-]*[A-Za-z0-9_]\.go\b`)
	treePath    = regexp.MustCompile(`\b(?:internal|cmd)/[A-Za-z0-9_./{},-]*[A-Za-z0-9_}]`)
	heading     = regexp.MustCompile(`(?m)^#{2,4} (\d+(?:\.\d+)*)[. ]`)
	designCite  = regexp.MustCompile(`DESIGN\.md(?:[\s/#*]|\x60)*§ ?(\d+(?:\.\d+)*)`)
	braceGroups = regexp.MustCompile(`\{([^{}]*)\}`)
)

// expandBraces turns "a{b,c}d" into "abd" and "acd", once per brace group.
func expandBraces(s string) []string {
	m := braceGroups.FindStringSubmatchIndex(s)
	if m == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[m[2]:m[3]], ",") {
		out = append(out, expandBraces(s[:m[0]]+alt+s[m[1]:])...)
	}
	return out
}

// codeOf returns the code a Markdown document quotes: every line of a
// fenced block and every inline code span outside one.
func codeOf(doc string) []string {
	var code []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			code = append(code, line)
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			code = append(code, m[1])
		}
	}
	return code
}

// repoFiles walks the module and returns every file's slash path.
func repoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDocsNameWhatExists: every test, benchmark or fuzz target (as a prefix
// of a declared one), Go file and internal/ or cmd/ path that DESIGN.md or
// README.md quotes in code exists in the tree.
func TestDocsNameWhatExists(t *testing.T) {
	files := repoFiles(t)
	exists := map[string]bool{}
	base := map[string]bool{}
	var funcs []string
	for _, f := range files {
		exists[f] = true
		for dir := filepath.Dir(f); dir != "."; dir = filepath.Dir(dir) {
			exists[filepath.ToSlash(dir)] = true
		}
		base[filepath.Base(f)] = true
		if strings.HasSuffix(f, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(readFile(t, f), -1) {
				funcs = append(funcs, m[1])
			}
		}
	}
	declared := func(prefix string) bool {
		for _, f := range funcs {
			if strings.HasPrefix(f, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, code := range codeOf(readFile(t, doc)) {
			for _, raw := range testName.FindAllString(code, -1) {
				for _, name := range expandBraces(raw) {
					if !declared(name) {
						t.Errorf("%s quotes %s, which no test file declares", doc, name)
					}
				}
			}
			for _, raw := range goFile.FindAllString(code, -1) {
				for _, name := range expandBraces(raw) {
					name = strings.TrimPrefix(name, "./")
					if !exists[name] && !(!strings.Contains(name, "/") && base[name]) {
						t.Errorf("%s quotes %s, which is not in the tree", doc, name)
					}
				}
			}
			for _, raw := range treePath.FindAllString(code, -1) {
				for _, path := range expandBraces(raw) {
					if path = strings.TrimSuffix(path, "/"); !exists[path] {
						t.Errorf("%s quotes %s, which is not in the tree", doc, path)
					}
				}
			}
		}
	}
}

// TestDesignSectionsResolve: every "DESIGN.md §N" that the code, the
// Makefile, CI or the other documents cite names a heading DESIGN.md has.
func TestDesignSectionsResolve(t *testing.T) {
	sections := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(readFile(t, "DESIGN.md"), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered headings")
	}
	cites := 0
	for _, f := range repoFiles(t) {
		switch {
		case strings.HasSuffix(f, ".go"), f == "Makefile", f == ".github/workflows/ci.yml",
			f == "README.md", f == "EXPERIMENTS.md", f == "DESIGN.md":
		default:
			continue
		}
		for _, m := range designCite.FindAllStringSubmatch(readFile(t, f), -1) {
			cites++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which DESIGN.md has no heading for", f, m[1])
			}
		}
	}
	if cites == 0 {
		t.Error("found no DESIGN.md citation; the pattern no longer matches the tree's")
	}
}
