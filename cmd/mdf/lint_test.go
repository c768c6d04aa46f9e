package main

import (
	"fmt"
	"strings"
	"testing"

	"metadataflow/internal/analysis"
)

// TestUnknownRule pins the usage-error contract: an unknown -rules entry
// exits 2 with a crisp message naming the bad rule, the valid rules, and
// the usage line — without running any analysis. The names of deleted
// rules are unknown like any other.
func TestUnknownRule(t *testing.T) {
	for _, bad := range []string{"nosuchrule", "goroutinecapture", "ctxflow"} {
		code, out, msg := mdf(t, "lint", "-rules", bad, "./...")
		if code != 2 {
			t.Fatalf("-rules %s: exit code = %d, want 2", bad, code)
		}
		if !strings.Contains(msg, fmt.Sprintf("unknown rule %q", bad)) {
			t.Errorf("stderr does not name the bad rule %q:\n%s", bad, msg)
		}
		for _, r := range analysis.Rules() {
			if !strings.Contains(msg, r) {
				t.Errorf("-rules %s: stderr does not list valid rule %q:\n%s", bad, r, msg)
			}
		}
		if !strings.Contains(msg, "usage: mdf lint") {
			t.Errorf("-rules %s: stderr does not include the usage line:\n%s", bad, msg)
		}
		if out != "" {
			t.Errorf("-rules %s: stdout should be empty on a usage error, got:\n%s", bad, out)
		}
	}
}

// TestLintListRules checks -list prints the eight rules, one per line, in
// the order they are documented, and exits 0.
func TestLintListRules(t *testing.T) {
	code, out, errOut := mdf(t, "lint", "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errOut)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	want := []string{"wallclock", "seededrand", "maporder", "droppederr", "unitsafety", "leakcheck", "locksafety", "spawnbound"}
	if len(got) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(got), len(want), out)
	}
	for i, r := range want {
		if got[i] != r {
			t.Errorf("-list line %d = %q, want %q", i, got[i], r)
		}
	}
}

// TestRepoCleanViaCLI runs the real gate end to end: the repository itself
// must be clean — exit 0, no findings, and no stale //lint:allow
// directives under -stale-allows.
func TestRepoCleanViaCLI(t *testing.T) {
	code, out, errOut := mdf(t, "lint", "-stale-allows", "./...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if out != "" {
		t.Errorf("expected no output on a clean repo, got:\n%s", out)
	}
}
