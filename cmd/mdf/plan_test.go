package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runPlan(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return mdf(t, append([]string{"plan"}, args...)...)
}

func TestPlanListRules(t *testing.T) {
	code, out, _ := runPlan(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, r := range []string{"compile", "dupbranch", "deadchoose", "degeniterate", "emptyfilter", "memfeasible"} {
		if !strings.Contains(out, r) {
			t.Errorf("rule %q missing from -list output:\n%s", r, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, errOut := runPlan(t); code != 2 || !strings.Contains(errOut, "no spec files") {
		t.Errorf("no args: exit = %d, stderr = %q, want 2 + no-spec-files", code, errOut)
	}
	if code, _, errOut := runPlan(t, "-rules", "nosuch", "x.json"); code != 2 || !strings.Contains(errOut, "unknown rule") {
		t.Errorf("unknown rule: exit = %d, stderr = %q", code, errOut)
	}
	if code, _, errOut := runPlan(t, "-write", "x.json"); code != 2 || !strings.Contains(errOut, "-write requires -canonical") {
		t.Errorf("-write alone: exit = %d, stderr = %q", code, errOut)
	}
	if code, _, _ := runPlan(t, "no-such-file.json"); code != 2 {
		t.Errorf("missing file: exit = %d, want 2", code)
	}
}

// TestSeededDefects: the verifier condemns the defect fixtures internal/plan
// tests against, through the CLI, with exit 1.
func TestSeededDefects(t *testing.T) {
	cases := []struct {
		fixture string
		rule    string
	}{
		{"dup-branch.json", "[dupbranch]"},
		{"dead-choose.json", "[deadchoose]"},
		{"degenerate-iterate.json", "[degeniterate]"},
		{"empty-filter.json", "[emptyfilter]"},
		{"infeasible-memory.json", "[memfeasible]"},
	}
	for _, tc := range cases {
		path := filepath.Join("..", "..", "internal", "plan", "testdata", tc.fixture)
		code, out, errOut := runPlan(t, path)
		if code != 1 {
			t.Errorf("%s: exit = %d, want 1 (stderr: %s)", tc.fixture, code, errOut)
		}
		if !strings.Contains(out, tc.rule) || !strings.Contains(out, tc.fixture+":") {
			t.Errorf("%s: output missing %s finding:\n%s", tc.fixture, tc.rule, out)
		}
		if !strings.Contains(errOut, "finding(s)") {
			t.Errorf("%s: stderr missing summary: %q", tc.fixture, errOut)
		}
	}
}

// TestCleanExamples: every committed example and canonical fixture passes
// the full battery — the acceptance bar for shipping them.
func TestCleanExamples(t *testing.T) {
	files := []string{
		filepath.Join("..", "..", "examples", "specs", "outlier.json"),
		filepath.Join("..", "..", "internal", "spec", "testdata", "canonical", "outlier-sweep.json"),
		filepath.Join("..", "..", "internal", "spec", "testdata", "canonical", "iterate-affine.json"),
	}
	code, out, errOut := runPlan(t, append([]string{"-canonical", "-stale-allows"}, files...)...)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out, errOut)
	}
}

// TestQuotaFlag: the CLI's cluster-shape flags reach the memfeasible rule.
func TestQuotaFlag(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "specs", "outlier.json")
	// Under a 1024 MB quota the default shape's 80 GB admission
	// reservation can never fit: no job is ever admitted.
	code, out, _ := runPlan(t, "-quota-mb", "1024", path)
	if code != 1 || !strings.Contains(out, "[memfeasible]") {
		t.Errorf("exit = %d, out = %q, want quota finding", code, out)
	}
	if code, _, _ := runPlan(t, path); code != 0 {
		t.Errorf("default config: exit = %d, want 0", code)
	}
}

func TestParseFindingAndJSON(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{\n  \"source\": nope\n}"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runPlan(t, "-json", bad)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var f fileFinding
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &f); err != nil {
		t.Fatalf("bad JSON line %q: %v", out, err)
	}
	if f.File != bad || f.Rule != "parse" || !strings.Contains(f.Msg, "line 2") {
		t.Errorf("finding = %+v", f)
	}
}

// TestCanonicalCheckAndWrite: a non-canonical document is condemned, -write
// rewrites it in place, and the rewrite is a fixpoint.
func TestCanonicalCheckAndWrite(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "spec.json")
	// Minimal but non-canonical: defaults unmaterialised, no version.
	doc := `{"source": {"rows": 10, "seed": 1}, "pipeline": [{"op": {"name": "id"}}]}`
	if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, _ := runPlan(t, "-canonical", file)
	if code != 1 || !strings.Contains(out, "[canonical]") {
		t.Fatalf("check: exit = %d, out = %q, want canonical finding", code, out)
	}

	if code, _, errOut := runPlan(t, "-canonical", "-write", file); code != 0 || !strings.Contains(errOut, "rewrote") {
		t.Fatalf("write: exit = %d, stderr = %q", code, errOut)
	}
	if code, out, _ := runPlan(t, "-canonical", file); code != 0 {
		t.Fatalf("rewrite not canonical: exit = %d, out = %q", code, out)
	}
	canon, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(canon), "schema_version") {
		t.Errorf("rewrite lacks schema_version:\n%s", canon)
	}
}

// TestHashMode: -hash prints a per-file content hash; semantically equal
// spellings print the same hash.
func TestHashMode(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	// Same graph, different spelling: key order and whitespace differ.
	if err := os.WriteFile(a, []byte(`{"source": {"rows": 10, "seed": 1}, "pipeline": [{"op": {"name": "x", "fn": "abs"}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(`{
  "pipeline": [{"op": {"fn": "abs", "name": "renamed"}}],
  "source": {"seed": 1, "rows": 10}
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runPlan(t, "-hash", a, b)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 hash lines, got %q", out)
	}
	ha := strings.TrimPrefix(lines[0], a+": ")
	hb := strings.TrimPrefix(lines[1], b+": ")
	if ha != hb || len(ha) != 16 {
		t.Errorf("hashes differ for equal graphs: %q vs %q", ha, hb)
	}

	// JSON mode carries the full report.
	code, out, _ = runPlan(t, "-hash", "-json", a)
	if code != 0 {
		t.Fatalf("json exit = %d", code)
	}
	var rep struct {
		File   string `json:"file"`
		Spec   string `json:"spec"`
		Chains []struct {
			Path string `json:"path"`
			Hash string `json:"hash"`
		} `json:"chains"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &rep); err != nil {
		t.Fatalf("bad JSON report %q: %v", out, err)
	}
	if rep.File != a || len(rep.Chains) == 0 {
		t.Errorf("report = %+v", rep)
	}
}

// TestStaleAllows: an allow entry that suppresses nothing is reported but
// does not affect the exit code.
func TestStaleAllows(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "spec.json")
	doc := `{"allow": ["emptyfilter"], "source": {"rows": 10, "seed": 1}, "pipeline": [{"op": {"name": "id"}}]}`
	if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runPlan(t, "-stale-allows", file)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stale allows are informational)", code)
	}
	if !strings.Contains(out, "[emptyfilter]") || !strings.Contains(out, "suppresses nothing") {
		t.Errorf("stale allow not reported: %q", out)
	}
}

// A source too large to generate is a parse finding that names the field.
func TestPlanRefusesOversizedSources(t *testing.T) {
	doc, err := os.ReadFile("../../examples/specs/outlier.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct{ old, new, field string }{
		{`"partitions": 32`, `"partitions": 200000000`, "source.partitions"},
		{`"rows": 20000`, `"rows": 2000000000`, "source.rows"},
	} {
		path := filepath.Join(dir, "oversized.json")
		if err := os.WriteFile(path, []byte(strings.Replace(string(doc), tc.old, tc.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out, _ := runPlan(t, "-json", path)
		var f fileFinding
		if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &f); err != nil {
			t.Fatalf("%s: bad JSON line %q: %v", tc.field, out, err)
		}
		if code != 1 || f.Rule != "parse" || !strings.Contains(f.Msg, tc.field) {
			t.Errorf("%s: exit %d, finding %+v; want 1 and a parse finding naming the field", tc.field, code, f)
		}
	}
}
