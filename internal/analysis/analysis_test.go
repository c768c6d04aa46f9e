package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureConfig maps the default policy onto the fixture tree: each rule
// gets the fixture package exercising it, the one named after the rule
// unless listed here.
func fixtureConfig() Config {
	cfg := DefaultConfig()
	for _, rule := range Rules() {
		cfg.Scopes[rule] = RuleScope{Dirs: []string{rule}}
	}
	cfg.Scopes["wallclock"] = RuleScope{Dirs: []string{"sim"}}
	cfg.Scopes["seededrand"] = RuleScope{Dirs: []string{"randuse"}, IncludeTests: true}
	cfg.UnitExemptDirs = []string{"unitsafety/costmodel"}
	return cfg
}

var wantRe = regexp.MustCompile(`// want:([a-z,]+)`)

// wantMarkers scans the fixture sources for `// want:<rule>` markers and
// returns the expected "file:line:rule" set.
func wantMarkers(t *testing.T, root string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, rule := range strings.Split(m[1], ",") {
				want[fmt.Sprintf("%s:%d:%s", rel, line, rule)] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFixtures runs the suite over the fixture tree and requires the
// findings to match the // want markers exactly — no misses, no extras.
// The marker-free //lint:allow lines double as the suppression tests.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	m, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if m.Path != "fixture" {
		t.Fatalf("module path = %q, want fixture", m.Path)
	}
	findings, _ := Analyze(m, fixtureConfig())

	got := map[string]bool{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)] = true
	}
	want := wantMarkers(t, root)
	if len(want) == 0 {
		t.Fatal("no want markers found; fixture tree missing?")
	}
	for key := range want {
		if !got[key] {
			t.Errorf("missing finding %s", key)
		}
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Rule)
		if !want[key] {
			t.Errorf("unexpected finding %s", f)
		}
	}
	if t.Failed() {
		var lines []string
		for _, f := range findings {
			lines = append(lines, f.String())
		}
		t.Logf("all findings:\n%s", strings.Join(lines, "\n"))
	}
}

// TestFixturesDetectViolations is the exit-code contract in miniature: a
// tree with violations must produce findings (mdf lint exits nonzero on
// any), and per-rule runs must catch their own rule.
func TestFixturesDetectViolations(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range Rules() {
		cfg := fixtureConfig()
		cfg.Rules = []string{rule}
		findings, _ := Analyze(m, cfg)
		if len(findings) == 0 {
			t.Errorf("rule %s found nothing in its fixture", rule)
		}
		for _, f := range findings {
			if f.Rule != rule {
				t.Errorf("rule filter %s produced finding for %s: %s", rule, f.Rule, f)
			}
		}
	}
}

// TestRepoIsClean locks the acceptance criterion in place: the repository
// itself must stay free of findings under the default policy. If this test
// fails, fix the violation or justify it with a //lint:allow comment.
func TestRepoIsClean(t *testing.T) {
	m, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if m.Path != "metadataflow" {
		t.Fatalf("module path = %q, want metadataflow", m.Path)
	}
	findings, stale := Analyze(m, DefaultConfig())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	for _, s := range stale {
		t.Errorf("%s", s)
	}
}

// TestInternalExportsHaveCallers keeps internal/ free of code that exists
// only for its own tests. Go's internal rule means only this tree can call an
// exported name under internal/, so one that no non-test file uses — in the
// module, examples/, cmd/ or benchmarks/ (which Load also walks) — is dead
// weight. Methods are left out: an interface can call them without naming
// them.
func TestInternalExportsHaveCallers(t *testing.T) {
	allowed := map[string]string{
		"internal/cluster.MustNew":           "test helper shared across packages",
		"internal/faults.MustGenerate":       "test helper shared across packages",
		"internal/graph.DFSMaintained":       "App. B closed form; collapsed_test.go checks it",
		"internal/graph.BFSMaintained":       "App. B closed form; collapsed_test.go checks it",
		"internal/graph.BFSChooseMaintained": "App. B closed form; collapsed_test.go checks it",
		"internal/graph.SimulateCollapsed":   "App. B simulation the closed forms are checked against",
		"internal/graph.PeakMaintained":      "App. B simulation the closed forms are checked against",
	}
	m, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	for _, pkg := range m.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, obj := range pkg.Info.Uses {
			used[obj] = true
		}
	}
	for _, pkg := range m.Packages {
		if !strings.HasPrefix(pkg.Dir, "internal/") || pkg.TypesPkg == nil {
			continue
		}
		scope := pkg.TypesPkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := pkg.Dir + "." + name
			if !obj.Exported() || used[obj] || allowed[key] != "" {
				continue
			}
			t.Errorf("%s: exported but no non-test file uses it", key)
		}
	}
}

// TestStaleAllows runs the suppression audit over the fixture tree: exactly
// the stalecheck directives — one for a clean line, one for a rule name
// that does not exist — are stale; every other fixture allow is
// load-bearing and must not appear.
func TestStaleAllows(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	_, stale := Analyze(m, fixtureConfig())
	var got []string
	for _, s := range stale {
		got = append(got, s.String())
	}
	want := []string{
		"stalecheck/stalecheck.go:8: stale //lint:allow locksafety: suppresses no finding",
		"stalecheck/stalecheck.go:14: stale //lint:allow locksafty: suppresses no finding",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stale allows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStaleAllowsRespectRuleSubset: restricting the run with -rules must
// not condemn another rule's directive — its findings were never produced,
// so the directive may well be load-bearing. Unknown rule names can never
// suppress and stay stale regardless of the subset.
func TestStaleAllowsRespectRuleSubset(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtureConfig()
	cfg.Rules = []string{"maporder"}
	_, stale := Analyze(m, cfg)
	var got []string
	for _, s := range stale {
		got = append(got, s.String())
	}
	want := []string{
		"stalecheck/stalecheck.go:14: stale //lint:allow locksafty: suppresses no finding",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stale allows under -rules maporder:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStaleAllowJSON pins the machine-readable schema `mdf lint -json
// -stale-allows` emits for audit entries.
func TestStaleAllowJSON(t *testing.T) {
	s := StaleAllow{File: "internal/engine/exec.go", Line: 7, Rule: "locksafety"}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"internal/engine/exec.go","line":7,"rule":"locksafety"}`
	if string(data) != want {
		t.Fatalf("Marshal = %s, want %s", data, want)
	}
}

// TestFindingString pins the diagnostic format the Makefile and editors
// parse.
func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/engine/exec.go", Line: 42, Rule: "maporder", Msg: "boom"}
	want := "internal/engine/exec.go:42: [maporder] boom"
	if f.String() != want {
		t.Fatalf("String() = %q, want %q", f.String(), want)
	}
}

// TestFindingJSON pins the machine-readable schema `mdf lint -json` emits:
// one object per finding with exactly these field names.
func TestFindingJSON(t *testing.T) {
	f := Finding{File: "internal/engine/exec.go", Line: 42, Rule: "unitsafety", Msg: "boom"}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"internal/engine/exec.go","line":42,"rule":"unitsafety","msg":"boom"}`
	if string(data) != want {
		t.Fatalf("Marshal = %s, want %s", data, want)
	}
}

// TestFindingsSorted checks the deterministic output order: a linter about
// determinism ought to report deterministically.
func TestFindingsSorted(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Analyze(m, fixtureConfig())
	sorted := sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
	if !sorted {
		t.Fatal("findings are not sorted by file, line, rule")
	}
}
