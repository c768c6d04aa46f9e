// Package analysis implements mdfvet, the repo's determinism and
// simulator-discipline static-analysis suite (driven by the mdf lint CLI).
// Every result the repo reproduces depends on the discrete-event simulator
// replaying bit-identically for a given seed, so the rules that keep it
// deterministic — and the unit discipline that keeps its quantities honest —
// are machine-checked instead of remembered:
//
//   - wallclock:   no time.Now/Since/Sleep/... inside the simulator
//     packages; virtual time is the only clock.
//   - seededrand:  no top-level math/rand functions in internal/; randomness
//     must come from an explicitly seeded *rand.Rand (stats.RNG).
//   - maporder:    no order-dependent work (appends, channel sends, output
//     emission, float accumulation) inside `range` over a map unless the
//     result is sorted afterwards.
//   - droppederr:  no `_`-discarded error results in non-test internal code.
//   - unitsafety:  simulator quantities carry their unit in the type —
//     sim.VTime for virtual seconds, sim.Bytes for data volumes. Exported
//     signatures must not smuggle them as plain float64/int64, and no
//     expression may mix the two units except the cluster cost model, which
//     is the one sanctioned bytes→seconds conversion.
//   - leakcheck:   paired resource methods stay balanced per package: a
//     package that calls Allocator.Put must also call Discard somewhere,
//     every Pin needs an Unpin, and every Open of a journal or checkpoint
//     store needs a Close. Pairs are matched on concrete and interface
//     receivers alike.
//   - locksafety:  mutexes stay safe: no sync.Mutex/RWMutex held across a
//     blocking operation (channel ops, select, WaitGroup.Wait, the engine's
//     Step/Run entry points) and lock/unlock balanced on every path with
//     defer recognized. sync.Cond.Wait is exempt — it releases its mutex.
//     (Copied lock values are go vet's copylocks.)
//   - spawnbound:  every `go` statement is tied to a visible join — the
//     goroutine signals completion (WaitGroup.Done, channel send/close)
//     and the package consumes the signal (Wait, receive). Data races
//     inside a joined goroutine are the race detector's (make race-short).
//
// Each rule is one entry of the rules table: its name, its default scope
// and its check.
//
// The suite is built on the standard library toolchain only: go/parser for
// syntax and go/types for semantics. The concurrency rules walk the typed
// ASTs with a path-splitting statement interpreter plus a package-local
// may-block summary fixpoint — a hand-rolled stand-in for an SSA CFG,
// chosen because the module deliberately has no dependencies (conc.go
// documents the trade-off against golang.org/x/tools/go/ssa). The module under analysis is
// type-checked in full (see typecheck.go) — module-internal imports resolve
// against the parsed tree and standard-library imports compile from source —
// so type questions ("is this a map?", "is this result an error?", "which
// unit does this expression carry?") get real answers that survive
// assignments, method calls and package boundaries. When type information is
// unavailable (test files, packages that fail to check) the typed analyzers
// stay silent, so every finding is actionable.
//
// A finding can be suppressed by a `//lint:allow <rule>` comment on the
// offending line or the line directly above it, optionally followed by a
// reason: `//lint:allow maporder -- aggregation is commutative`.
package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer. The JSON field names
// are the stable machine-readable schema emitted by `mdf lint -json`.
type Finding struct {
	// File is the file path relative to the module root, slash-separated.
	File string `json:"file"`
	// Line is the 1-based source line.
	Line int `json:"line"`
	// Rule is the analyzer that produced the finding.
	Rule string `json:"rule"`
	// Msg describes the violation and how to fix it.
	Msg string `json:"msg"`
}

// String renders the diagnostic in the conventional file:line form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// rule is one analyzer: the name -rules and //lint:allow spell, where the
// repository policy applies it, and its check. A rule checks file by file
// or, when its verdict needs the whole package (a pairing, a join, a
// may-block summary), once per package over the package's files in scope.
// Checks leave Finding.Rule empty; rawFindings stamps the name.
type rule struct {
	name  string
	scope RuleScope
	file  func(f *File, cfg Config) []Finding
	pkg   func(pkg *Package, files []*File) []Finding
}

// rules is the suite, in the order diagnostics are documented. Adding or
// removing a rule is adding or removing its entry, its file and its fixture
// package (named after the rule, or mapped in the tests' fixtureConfig).
var rules = []rule{
	{name: "wallclock", file: checkWallclock, scope: RuleScope{Dirs: []string{
		"internal/engine",
		"internal/cluster",
		"internal/scheduler",
		"internal/memorymgr",
		"internal/baseline",
		"internal/experiments",
		"internal/faults",
		"internal/chaos",
		"internal/mdf",
		"internal/obs",
		"internal/spec",
		"internal/plan",
		"internal/journal",
		"internal/ckptstore",
		"cmd/mdf/stat.go",
		"cmd/mdf/statwatch.go",
	}}},
	{name: "seededrand", file: checkSeededRand, scope: RuleScope{Dirs: []string{"internal"}, IncludeTests: true}},
	{name: "maporder", file: checkMapOrder, scope: RuleScope{Dirs: []string{"internal"}}},
	{name: "droppederr", file: checkDroppedErr, scope: RuleScope{Dirs: []string{"internal"}}},
	{name: "unitsafety", file: checkUnitSafety, scope: RuleScope{Dirs: []string{
		"internal/sim",
		"internal/cluster",
		"internal/engine",
		"internal/memorymgr",
		"internal/scheduler",
		"internal/stats",
		"internal/baseline",
		"internal/obs",
		"internal/plan",
		"internal/journal",
		"internal/ckptstore",
		"cmd/mdf/stat.go",
		"cmd/mdf/statwatch.go",
	}}},
	{name: "leakcheck", pkg: checkLeakCheck, scope: RuleScope{Dirs: []string{"internal"}}},
	{name: "locksafety", pkg: checkLockSafety, scope: RuleScope{Dirs: []string{"internal", "cmd"}}},
	{name: "spawnbound", pkg: checkSpawnBound, scope: RuleScope{Dirs: []string{"internal", "cmd"}}},
}

// Rules lists every rule the suite implements.
func Rules() []string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.name
	}
	return names
}

// RuleScope says where one rule applies.
type RuleScope struct {
	// Dirs are slash-separated paths relative to the module root, each a
	// directory prefix or one file; a file is in scope when its path is one
	// of them or under one of them. An empty list disables the rule.
	Dirs []string
	// IncludeTests extends the rule to _test.go files.
	IncludeTests bool
}

func (s RuleScope) applies(relPath string, isTest bool) bool {
	return (!isTest || s.IncludeTests) && underAnyDir(relPath, s.Dirs)
}

// underAnyDir reports whether relPath is one of dirs or inside one of them.
func underAnyDir(relPath string, dirs []string) bool {
	for _, d := range dirs {
		if relPath == d || strings.HasPrefix(relPath, d+"/") {
			return true
		}
	}
	return false
}

// Config is the suite's policy: which rule runs where.
type Config struct {
	// Scopes maps a rule name to where the rule applies; a rule with no
	// entry runs nowhere.
	Scopes map[string]RuleScope
	// UnitExemptDirs are directories (same prefix semantics as RuleScope)
	// where cross-unit arithmetic and conversions are sanctioned: the
	// cluster cost model converts bytes into seconds by design. The naming
	// sub-check of unitsafety still applies there.
	UnitExemptDirs []string
	// Rules restricts the run to a subset of rule names; empty means all.
	Rules []string
}

// DefaultConfig returns the repository policy: every rule at its scope in
// the rules table, and the cluster cost model as the one unit exemption.
func DefaultConfig() Config {
	cfg := Config{
		Scopes:         make(map[string]RuleScope, len(rules)),
		UnitExemptDirs: []string{"internal/cluster"},
	}
	for _, r := range rules {
		cfg.Scopes[r.name] = r.scope
	}
	return cfg
}

func (c Config) ruleEnabled(rule string) bool {
	if len(c.Rules) == 0 {
		return true
	}
	for _, r := range c.Rules {
		if r == rule {
			return true
		}
	}
	return false
}

// StaleAllow reports a //lint:allow directive that suppressed nothing in a
// run: the violation it excused has been fixed or moved, so the directive
// should be deleted before it silently hides a future regression. The JSON
// field names are the stable schema emitted by `mdf lint -json`.
type StaleAllow struct {
	// File is the file path relative to the module root, slash-separated.
	File string `json:"file"`
	// Line is the 1-based line of the //lint:allow comment.
	Line int `json:"line"`
	// Rule is the allow entry that suppressed nothing.
	Rule string `json:"rule"`
}

// String renders the audit entry in the conventional file:line form.
func (s StaleAllow) String() string {
	return fmt.Sprintf("%s:%d: stale //lint:allow %s: suppresses no finding", s.File, s.Line, s.Rule)
}

// Analyze executes every enabled analyzer over the module and returns the
// surviving findings sorted by file, line and rule, plus the suppression
// audit: the second result lists every //lint:allow entry that suppressed
// nothing. An entry is only judged when
// its verdict is meaningful — a known rule must be enabled in this run
// (otherwise its findings were never produced and the directive may well be
// load-bearing), while an unknown rule name can never suppress anything and
// is always stale.
func Analyze(m *Module, cfg Config) ([]Finding, []StaleAllow) {
	all := rawFindings(m, cfg)

	// used marks, per file and allow line, the rules that earned their keep.
	used := map[string]map[int]map[string]bool{}
	var kept []Finding
	for _, fd := range all {
		line, ok := m.suppressingLine(fd)
		if !ok {
			kept = append(kept, fd)
			continue
		}
		lines := used[fd.File]
		if lines == nil {
			lines = map[int]map[string]bool{}
			used[fd.File] = lines
		}
		rules := lines[line]
		if rules == nil {
			rules = map[string]bool{}
			lines[line] = rules
		}
		rules[fd.Rule] = true
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})

	known := map[string]bool{}
	for _, r := range Rules() {
		known[r] = true
	}
	var stale []StaleAllow
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for line, rules := range f.allows {
				for rule := range rules {
					if known[rule] && !cfg.ruleEnabled(rule) {
						continue
					}
					if used[f.Path][line][rule] {
						continue
					}
					stale = append(stale, StaleAllow{File: f.Path, Line: line, Rule: rule})
				}
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
	return kept, stale
}

// rawFindings runs the enabled analyzers over the files in their scopes
// and returns their unsorted, unsuppressed diagnostics.
func rawFindings(m *Module, cfg Config) []Finding {
	var all []Finding
	for _, r := range rules {
		if !cfg.ruleEnabled(r.name) {
			continue
		}
		scope := cfg.Scopes[r.name]
		for _, pkg := range m.Packages {
			var files []*File
			for _, f := range pkg.Files {
				if scope.applies(f.Path, f.IsTest) {
					files = append(files, f)
				}
			}
			if len(files) == 0 {
				continue
			}
			var found []Finding
			if r.pkg != nil {
				found = r.pkg(pkg, files)
			} else {
				for _, f := range files {
					found = append(found, r.file(f, cfg)...)
				}
			}
			for i := range found {
				found[i].Rule = r.name
			}
			all = append(all, found...)
		}
	}
	return all
}
