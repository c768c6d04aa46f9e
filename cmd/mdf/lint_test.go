package main

import (
	"strings"
	"testing"

	"metadataflow/internal/analysis"
)

// TestUnknownRule pins the usage-error contract: an unknown -rules entry
// exits 2 with a crisp message naming the bad rule, the valid rules, and
// the usage line — without running any analysis.
func TestUnknownRule(t *testing.T) {
	code, out, msg := mdf(t, "lint", "-rules", "nosuchrule", "./...")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(msg, `unknown rule "nosuchrule"`) {
		t.Errorf("stderr does not name the bad rule:\n%s", msg)
	}
	for _, r := range analysis.Rules() {
		if !strings.Contains(msg, r) {
			t.Errorf("stderr does not list valid rule %q:\n%s", r, msg)
		}
	}
	if !strings.Contains(msg, "usage: mdf lint") {
		t.Errorf("stderr does not include the usage line:\n%s", msg)
	}
	if out != "" {
		t.Errorf("stdout should be empty on a usage error, got:\n%s", out)
	}
}

// TestLintListRules checks -list prints every rule, one per line, and exits 0.
func TestLintListRules(t *testing.T) {
	code, out, errOut := mdf(t, "lint", "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errOut)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	want := analysis.Rules()
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
