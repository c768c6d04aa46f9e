// Command mutate measures the test suite against a committed list of
// mutants (rows.go): one row per mechanism of the paper, daemon invariant or
// past reference-model bug, each an exact edit of one source file that a
// test the row names must catch.
//
//	go run ./internal/mutate
//
// For each row it writes the mutant to a temporary directory and runs `go
// test -short -count=1 -overlay <json>` on the row's packages, so the tree
// is never edited; the overlay replaces .go and .s files alike. A row is
// caught only if the output has a `--- FAIL: <name>` line for a test the row
// lists: a build failure, or a failure of some other test (a timing flake),
// is an error in the row, not a catch. The command prints each row's time
// and every test that failed under it, and exits 1 if any row survives or
// is invalid.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// row is one mutant: old, which occurs exactly once in file (slash-separated,
// from the module root), replaced by new. pkgs are the directories under
// internal/ to test and tests the tests that must catch it, each list
// space-separated; why is the paper line or past bug the row stands for.
type row struct {
	name, why, file, old, new, pkgs, tests string
}

func main() {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(2)
	}
	bad, start := 0, time.Now()
	for i, r := range rows {
		t0 := time.Now()
		caught, failed, err := r.run(root, filepath.Join(tmp, fmt.Sprint(i)))
		verdict := "caught"
		switch {
		case err != nil:
			verdict, bad = "INVALID: "+err.Error(), bad+1
		case !caught:
			verdict, bad = "SURVIVED", bad+1
		}
		if len(failed) == 0 {
			failed = []string{"none"}
		}
		fmt.Printf("%-20s %5.1fs  %s; failed: %s\n", r.name, time.Since(t0).Seconds(), verdict, strings.Join(failed, " "))
	}
	fmt.Printf("%d rows, %d survived or invalid, %.0fs\n", len(rows), bad, time.Since(start).Seconds())
	if err := os.RemoveAll(tmp); err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// moduleRoot returns the nearest directory at or above the working
// directory that holds go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	for err == nil {
		if _, serr := os.Stat(filepath.Join(dir, "go.mod")); serr == nil {
			return dir, nil
		}
		if filepath.Dir(dir) == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = filepath.Dir(dir)
	}
	return "", err
}

// mutant returns the row's file with its edit applied, or an error if old
// does not occur in it exactly once or new does not differ from it.
func (r row) mutant(root string) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(r.file)))
	if err != nil {
		return nil, err
	}
	if n := bytes.Count(src, []byte(r.old)); n != 1 {
		return nil, fmt.Errorf("%s holds the old text %d times, want once", r.file, n)
	}
	if r.new == r.old {
		return nil, fmt.Errorf("the new text is the old one")
	}
	return bytes.Replace(src, []byte(r.old), []byte(r.new), 1), nil
}

// run tests the row's packages with the mutant, written under dir with its
// overlay, in place of its file. It returns whether a listed test failed,
// and every test that failed, as package.Test.
func (r row) run(root, dir string) (caught bool, failed []string, err error) {
	src, err := r.mutant(root)
	if err != nil {
		return false, nil, err
	}
	// The mutant keeps the file's base name, which build constraints
	// (_amd64.s) are read from.
	mutant := filepath.Join(dir, filepath.Base(r.file))
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, filepath.FromSlash(r.file)): mutant},
	})
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(mutant, src, 0o644)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "overlay.json"), overlay, 0o644)
	}
	if err != nil {
		return false, nil, err
	}
	args := []string{"test", "-short", "-count=1", "-overlay", filepath.Join(dir, "overlay.json")}
	for _, p := range strings.Fields(r.pkgs) {
		args = append(args, "./internal/"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, runErr := cmd.CombinedOutput()
	failed, broken := parseTestOutput(out)
	switch {
	case len(broken) > 0:
		return false, failed, fmt.Errorf("%s did not build", strings.Join(broken, ", "))
	case runErr != nil && len(failed) == 0:
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		return false, nil, fmt.Errorf("go test failed with no test failing: %v\n%s", runErr,
			strings.Join(lines[max(len(lines)-10, 0):], "\n"))
	}
	listed := strings.Fields(r.tests)
	for _, f := range failed {
		caught = caught || slices.Contains(listed, f[strings.LastIndex(f, ".")+1:])
	}
	return caught, failed, nil
}

// parseTestOutput reads go test's output over several packages, each
// package's lines ending in its "ok" or "FAIL" line. It returns the
// top-level tests that failed, as package.Test in output order, and the
// packages that did not build.
func parseTestOutput(out []byte) (failed, broken []string) {
	var pending []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "--- FAIL: "); ok {
			name, _, _ = strings.Cut(name, " ")
			name, _, _ = strings.Cut(name, "/")
			if !slices.Contains(pending, name) {
				pending = append(pending, name)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || (fields[0] != "ok" && fields[0] != "FAIL") {
			continue
		}
		if strings.HasSuffix(line, "[build failed]") || strings.HasSuffix(line, "[setup failed]") {
			broken = append(broken, fields[1])
		}
		for _, name := range pending {
			failed = append(failed, path.Base(fields[1])+"."+name)
		}
		pending = pending[:0]
	}
	return failed, broken
}
