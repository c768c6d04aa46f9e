package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRowsApply checks every row without running it: the old text occurs
// in its file exactly once and the new text differs; the file is program
// code, not a test; each package is a directory of Go files; and each test
// the row names is declared in one of them. So the list follows the code
// and the tests.
func TestRowsApply(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range rows {
		if names[r.name] {
			t.Errorf("row %s is listed twice", r.name)
		}
		names[r.name] = true
		if r.why == "" || r.pkgs == "" || r.tests == "" {
			t.Errorf("row %s: a row needs a reason, packages and tests", r.name)
		}
		if strings.HasSuffix(r.file, "_test.go") {
			t.Errorf("row %s mutates a test file", r.name)
		}
		if _, err := r.mutant(root); err != nil {
			t.Errorf("row %s: %v", r.name, err)
		}
		var tests strings.Builder
		for _, pkg := range strings.Fields(r.pkgs) {
			files, err := filepath.Glob(filepath.Join(root, "internal", filepath.FromSlash(pkg), "*.go"))
			if err != nil || len(files) == 0 {
				t.Errorf("row %s: %s is no package directory", r.name, pkg)
			}
			for _, f := range files {
				if strings.HasSuffix(f, "_test.go") {
					src, err := os.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					tests.Write(src)
				}
			}
		}
		for _, name := range strings.Fields(r.tests) {
			decl := regexp.MustCompile(`(?m)^func ` + regexp.QuoteMeta(name) + `\(t \*testing\.T\)`)
			if !decl.MatchString(tests.String()) {
				t.Errorf("row %s: no package of the row declares %s", r.name, name)
			}
		}
	}
}

// TestParseTestOutput holds the parser to go test's output over several
// packages: a failing test is named with its package once, however many of
// its subtests fail, and a package that does not build is reported.
func TestParseTestOutput(t *testing.T) {
	out := []byte(`--- FAIL: TestA (0.01s)
    --- FAIL: TestA/sub (0.00s)
    --- FAIL: TestA/other (0.00s)
        x_test.go:3: wrong
--- FAIL: TestB (0.00s)
FAIL
FAIL	metadataflow/internal/engine	1.2s
ok  	metadataflow/internal/scheduler	0.4s
# metadataflow/internal/vecmath
vecmath.go:1: syntax error
FAIL	metadataflow/internal/vecmath [build failed]
--- FAIL: TestC (0.00s)
FAIL	metadataflow/internal/workload/dnn	0.3s
FAIL
`)
	failed, broken := parseTestOutput(out)
	if got, want := strings.Join(failed, " "), "engine.TestA engine.TestB dnn.TestC"; got != want {
		t.Errorf("failed %q, want %q", got, want)
	}
	if got, want := strings.Join(broken, " "), "metadataflow/internal/vecmath"; got != want {
		t.Errorf("broken %q, want %q", got, want)
	}
}
