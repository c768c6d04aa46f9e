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
//     every Pin needs an Unpin, and every telemetry SpanBegin needs a
//     SpanEnd. Pairs are matched on concrete and interface receivers alike
//     (the engine drives telemetry through the obs.Probe interface).
//   - locksafety:  mutexes stay safe: no sync.Mutex/RWMutex held across a
//     blocking operation (channel ops, select, WaitGroup.Wait, the engine's
//     Step/Run entry points) and lock/unlock balanced on every path with
//     defer recognized. sync.Cond.Wait is exempt — it releases its mutex.
//     (Copied lock values are go vet's copylocks.)
//   - goroutinecapture: a spawned closure may not write a captured variable
//     without a visible synchronization edge (mutex, channel send/close,
//     WaitGroup.Done).
//   - ctxflow:     functions holding a context.Context must thread it;
//     context.Background()/TODO() are banned in library code outside main,
//     tests and the documented allowlist of sanctioned roots.
//   - spawnbound:  every `go` statement is tied to a visible join — the
//     goroutine signals completion (WaitGroup.Done, channel send/close)
//     and the package consumes the signal (Wait, receive).
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
	"go/types"
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

// Rule names, in the order diagnostics are documented.
const (
	RuleWallclock        = "wallclock"
	RuleSeededRand       = "seededrand"
	RuleMapOrder         = "maporder"
	RuleDroppedErr       = "droppederr"
	RuleUnitSafety       = "unitsafety"
	RuleLeakCheck        = "leakcheck"
	RuleLockSafety       = "locksafety"
	RuleGoroutineCapture = "goroutinecapture"
	RuleCtxFlow          = "ctxflow"
	RuleSpawnBound       = "spawnbound"
)

// Rules lists every rule the suite implements.
func Rules() []string {
	return []string{
		RuleWallclock, RuleSeededRand, RuleMapOrder, RuleDroppedErr,
		RuleUnitSafety, RuleLeakCheck,
		RuleLockSafety, RuleGoroutineCapture, RuleCtxFlow, RuleSpawnBound,
	}
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
	if isTest && !s.IncludeTests {
		return false
	}
	for _, d := range s.Dirs {
		if relPath == d || strings.HasPrefix(relPath, d+"/") {
			return true
		}
	}
	return false
}

// Config is the suite's policy: which rule runs where, and the small
// vocabularies the heuristic analyzers use.
type Config struct {
	Wallclock        RuleScope
	SeededRand       RuleScope
	MapOrder         RuleScope
	DroppedErr       RuleScope
	UnitSafety       RuleScope
	LeakCheck        RuleScope
	LockSafety       RuleScope
	GoroutineCapture RuleScope
	CtxFlow          RuleScope
	SpawnBound       RuleScope

	// UnitExemptDirs are directories (same prefix semantics as RuleScope)
	// where cross-unit arithmetic and conversions are sanctioned: the
	// cluster cost model converts bytes into seconds by design. The naming
	// sub-check of unitsafety still applies there.
	UnitExemptDirs []string
	// LeakPairs are the acquire/release method pairs that leakcheck keeps
	// balanced per package.
	LeakPairs []LeakPair

	// WallclockFuncs are the forbidden package-level time functions.
	WallclockFuncs []string
	// SeededRandFuncs are the forbidden top-level math/rand functions (the
	// ones backed by the unseeded global source). Constructors (New,
	// NewSource, NewZipf) stay allowed.
	SeededRandFuncs []string
	// EmitNames are function or method names whose call inside a
	// range-over-map loop counts as emitting externally visible output in
	// iteration order (trace events, CSV rows, log lines).
	EmitNames []string

	// BlockingCalls names calls ("pkg.Type.Method" or "pkg.Func", package
	// name not path) that locksafety treats as blocking operations: the
	// engine's stage-execution entry points run real operator compute, and
	// the service's drain/idle waits park on a condition variable.
	// sync.WaitGroup.Wait is always blocking and need not be listed.
	BlockingCalls []string
	// CtxRootFuncs allowlists functions ("pkgdir.FuncName") sanctioned to
	// mint context.Background()/TODO() roots in library code; each entry's
	// justification lives in ARCHITECTURE.md, "Concurrency rules".
	CtxRootFuncs []string
	// SpawnJoinFuncs names spawn targets ("pkg.Type.Method" or "pkg.Func")
	// whose join is owned by the named construct itself (bounded worker
	// pools); spawnbound accepts `go` statements calling them.
	SpawnJoinFuncs []string

	// Rules restricts the run to a subset of rule names; empty means all.
	Rules []string
}

// DefaultConfig returns the repository policy described in the package
// comment: the virtual-clock packages for wallclock, all of internal/ for
// the other three rules.
func DefaultConfig() Config {
	return Config{
		Wallclock: RuleScope{Dirs: []string{
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
		}},
		SeededRand: RuleScope{Dirs: []string{"internal"}, IncludeTests: true},
		MapOrder:   RuleScope{Dirs: []string{"internal"}},
		DroppedErr: RuleScope{Dirs: []string{"internal"}},
		UnitSafety: RuleScope{Dirs: []string{
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
		}},
		LeakCheck:        RuleScope{Dirs: []string{"internal"}},
		LockSafety:       RuleScope{Dirs: []string{"internal", "cmd"}},
		GoroutineCapture: RuleScope{Dirs: []string{"internal", "cmd"}},
		CtxFlow:          RuleScope{Dirs: []string{"internal"}},
		SpawnBound:       RuleScope{Dirs: []string{"internal", "cmd"}},

		UnitExemptDirs: []string{"internal/cluster"},
		LeakPairs: []LeakPair{
			{Acquire: "Put", Release: "Discard"},
			{Acquire: "Pin", Release: "Unpin"},
			{Acquire: "SpanBegin", Release: "SpanEnd"},
			{Acquire: "IntervalBegin", Release: "IntervalEnd"},
			// Durable state handles: whoever opens a journal or checkpoint
			// store must close it somewhere in the same package.
			{Acquire: "Open", Release: "Close"},
		},

		WallclockFuncs: []string{
			"Now", "Since", "Until", "Sleep", "After", "AfterFunc",
			"Tick", "NewTimer", "NewTicker",
		},
		SeededRandFuncs: []string{
			"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
			"Uint32", "Uint64", "Float32", "Float64",
			"NormFloat64", "ExpFloat64", "Perm", "Shuffle", "Seed", "Read",
		},
		EmitNames: []string{
			"trace", "Emit", "Record", "Printf", "Println", "Print",
			"Fprintf", "Fprintln", "Fprint", "WriteString",
		},

		BlockingCalls: []string{
			// Stage execution runs real operator compute (KDE densities,
			// NN training); holding a service lock across it starves the
			// HTTP surface.
			"engine.Run.Step",
			"engine.Run.RunToCompletion",
			// The service's lifecycle waits park on its condition variable.
			"service.Server.Drain",
			"service.Server.WaitIdle",
			"service.Server.Close",
		},
		CtxRootFuncs: []string{
			// The service mints per-job roots deliberately detached from
			// process signals: drain grants each in-flight job a step
			// budget before cancelling, which a signal-parented context
			// would cut short. See ARCHITECTURE.md, "Concurrency rules".
			"internal/service.startLocked",
		},
	}
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

// Run executes every enabled analyzer over the module and returns the
// surviving findings sorted by file, line and rule.
func Run(m *Module, cfg Config) []Finding {
	findings, _ := Analyze(m, cfg)
	return findings
}

// Analyze is Run plus the suppression audit: the second result lists every
// //lint:allow entry that suppressed nothing. An entry is only judged when
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

// rawFindings runs the enabled analyzers and returns their unsorted,
// unsuppressed diagnostics.
func rawFindings(m *Module, cfg Config) []Finding {
	var all []Finding
	for _, pkg := range m.Packages {
		var blocks map[*types.Func]bool
		if cfg.ruleEnabled(RuleLockSafety) && pkg.Info != nil {
			blocks = blockSummary(pkg, cfg)
		}
		for _, f := range pkg.Files {
			if cfg.ruleEnabled(RuleWallclock) && cfg.Wallclock.applies(f.Path, f.IsTest) {
				all = append(all, checkWallclock(f, cfg)...)
			}
			if cfg.ruleEnabled(RuleSeededRand) && cfg.SeededRand.applies(f.Path, f.IsTest) {
				all = append(all, checkSeededRand(f, cfg)...)
			}
			if cfg.ruleEnabled(RuleMapOrder) && cfg.MapOrder.applies(f.Path, f.IsTest) {
				all = append(all, checkMapOrder(m, f, cfg)...)
			}
			if cfg.ruleEnabled(RuleDroppedErr) && cfg.DroppedErr.applies(f.Path, f.IsTest) {
				all = append(all, checkDroppedErr(m, f)...)
			}
			if cfg.ruleEnabled(RuleUnitSafety) && cfg.UnitSafety.applies(f.Path, f.IsTest) {
				all = append(all, checkUnitSafety(f, cfg)...)
			}
			if cfg.ruleEnabled(RuleLockSafety) && cfg.LockSafety.applies(f.Path, f.IsTest) {
				all = append(all, checkLockSafety(f, cfg, blocks)...)
			}
			if cfg.ruleEnabled(RuleGoroutineCapture) && cfg.GoroutineCapture.applies(f.Path, f.IsTest) {
				all = append(all, checkGoroutineCapture(f, cfg)...)
			}
			if cfg.ruleEnabled(RuleCtxFlow) && cfg.CtxFlow.applies(f.Path, f.IsTest) {
				all = append(all, checkCtxFlow(f, cfg)...)
			}
		}
		if cfg.ruleEnabled(RuleLeakCheck) {
			all = append(all, checkLeakCheck(pkg, cfg)...)
		}
		if cfg.ruleEnabled(RuleSpawnBound) {
			all = append(all, checkSpawnBound(pkg, cfg)...)
		}
	}
	return all
}
