// Package faults defines the deterministic fault model of the resilient
// execution layer: a seed-driven fault plan describing node crashes
// (transient process restarts and permanent machine losses), transient
// slowdown windows, disk-bandwidth degradation, and operator panics, plus
// the retry/backoff policy applied to misbehaving user code.
//
// A Plan is pure data (JSON-serialisable for the mdf run -faults flag); the
// engine consumes it through an Injector, which tracks which events have
// already fired so that repeated and correlated failures are injected
// exactly once each, at deterministic points of the run. All fault timing
// is expressed in the cluster's virtual time and in executed-stage counts,
// never wall clock, so a faulty run is exactly reproducible.
package faults

import (
	"encoding/json"
	"fmt"

	"metadataflow/internal/stats"
)

// RetryPolicy bounds the re-execution of panicking operator functions: an
// invocation is retried up to MaxAttempts times, with an exponential
// virtual-time backoff of BackoffSec·2^(attempt-1) charged between attempts.
type RetryPolicy struct {
	// MaxAttempts is the total number of invocation attempts (>= 1);
	// 0 selects the default of 3.
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// BackoffSec is the base backoff in virtual seconds; 0 selects the
	// default of 1.
	BackoffSec float64 `json:"backoffSec,omitempty"`
}

// DefaultRetry is the retry policy applied when a plan does not set one
// (and to fault-free runs, which still isolate genuine operator panics).
func DefaultRetry() RetryPolicy { return RetryPolicy{MaxAttempts: 3, BackoffSec: 1} }

// WithDefaults returns the policy with zero fields filled from the default:
// the effective policy an injector will apply. The chaos harness uses it to
// compute retry backoff budgets for its bounded-overhead oracle.
func (p RetryPolicy) WithDefaults() RetryPolicy { return p.withDefaults() }

// withDefaults fills zero fields with the default policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetry()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BackoffSec <= 0 {
		p.BackoffSec = d.BackoffSec
	}
	return p
}

// Backoff returns the virtual-time penalty charged after the given failed
// attempt (1-based): BackoffSec·2^(attempt-1).
func (p RetryPolicy) Backoff(attempt int) float64 {
	b := p.BackoffSec
	for i := 1; i < attempt; i++ {
		b *= 2
	}
	return b
}

// Crash schedules a node failure. It fires at the first scheduling boundary
// where at least AfterStages stages have executed AND virtual time has
// reached At; both default to zero, so {node: 0} crashes node 0 before the
// first stage. A non-permanent crash models a process restart: the node
// loses its memory-resident partitions but keeps serving; partitions with a
// durable checkpoint are re-read, the rest are re-derived by lineage. A
// permanent crash removes the node from the live set; its partitions are
// rebalanced across the survivors.
type Crash struct {
	// Node is the worker index to fail.
	Node int `json:"node"`
	// AfterStages is the number of executed stages required before firing.
	AfterStages int `json:"afterStages,omitempty"`
	// At is the virtual time required before firing.
	At float64 `json:"at,omitempty"`
	// Permanent removes the node from the live set for the rest of the run.
	Permanent bool `json:"permanent,omitempty"`
}

// Window is a transient degradation interval [From, To) in virtual time on
// one node. To <= 0 means the window never closes. Factor multiplies the
// affected durations: > 1 degrades, (0, 1) accelerates; it composes with a
// user-set straggler SlowFactor.
type Window struct {
	// Node is the affected worker index.
	Node int `json:"node"`
	// From and To bound the window in virtual seconds; To <= 0 is open.
	From float64 `json:"from,omitempty"`
	To   float64 `json:"to,omitempty"`
	// Factor is the duration multiplier while the window is active.
	Factor float64 `json:"factor"`
}

// active reports whether the window covers virtual time now.
func (w Window) active(now float64) bool {
	return now >= w.From && (w.To <= 0 || now < w.To)
}

// PanicTarget selects which operator invocations a PanicSpec fails.
type PanicTarget string

const (
	// TargetEval fails choose evaluator invocations (the default).
	TargetEval PanicTarget = "eval"
	// TargetTransform fails transform/source operator invocations.
	TargetTransform PanicTarget = "transform"
)

// PanicSpec makes matching operator invocations panic. Each injected panic
// consumes one of Times; once exhausted the operator behaves normally, so a
// spec with Times below the retry budget exercises recovery without
// changing any choose decision, while Times at or above it forces the
// branch into quarantine.
type PanicSpec struct {
	// Op matches the operator name exactly; empty matches every operator
	// of the targeted kind.
	Op string `json:"op,omitempty"`
	// Target selects evaluator or transform invocations; empty means eval.
	Target PanicTarget `json:"target,omitempty"`
	// Times is the number of invocations to fail (>= 1).
	Times int `json:"times"`
}

// Plan is a deterministic fault schedule for one run.
type Plan struct {
	// Seed labels generated plans; it does not affect replay (a plan is
	// already concrete) but records how it was derived.
	Seed int64 `json:"seed,omitempty"`
	// Retry bounds panic recovery; zero fields take defaults.
	Retry RetryPolicy `json:"retry,omitempty"`
	// Crashes are the node failures to inject, in any order.
	Crashes []Crash `json:"crashes,omitempty"`
	// Slowdowns scale all durations of a node within a window.
	Slowdowns []Window `json:"slowdowns,omitempty"`
	// DiskFaults scale only disk-operation durations within a window,
	// modelling disk-bandwidth degradation.
	DiskFaults []Window `json:"diskFaults,omitempty"`
	// Panics fail matching operator invocations.
	Panics []PanicSpec `json:"panics,omitempty"`
	// CkptFlips corrupt durable checkpoint-store entries at load time:
	// the Load-th store read of the run flips one bit in the stored file
	// before verification, so the load misses and the engine re-derives
	// by lineage (durability.go).
	CkptFlips []CkptFlip `json:"ckptFlips,omitempty"`
}

// Parse decodes a JSON plan and validates it.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate reports structural errors of the plan.
func (p *Plan) Validate() error {
	if p.Retry.MaxAttempts < 0 || p.Retry.BackoffSec < 0 {
		return fmt.Errorf("faults: negative retry policy")
	}
	for i, c := range p.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("faults: crash %d: negative node %d", i, c.Node)
		}
		if c.AfterStages < 0 || c.At < 0 {
			return fmt.Errorf("faults: crash %d: negative trigger", i)
		}
	}
	for i, w := range append(append([]Window(nil), p.Slowdowns...), p.DiskFaults...) {
		if w.Node < 0 {
			return fmt.Errorf("faults: window %d: negative node %d", i, w.Node)
		}
		if w.Factor <= 0 {
			return fmt.Errorf("faults: window %d: non-positive factor %g", i, w.Factor)
		}
		if w.From < 0 || (w.To > 0 && w.To <= w.From) {
			return fmt.Errorf("faults: window %d: bad interval [%g, %g)", i, w.From, w.To)
		}
	}
	for i, s := range p.Panics {
		if s.Times < 1 {
			return fmt.Errorf("faults: panic spec %d: times must be >= 1", i)
		}
		switch s.Target {
		case "", TargetEval, TargetTransform:
		default:
			return fmt.Errorf("faults: panic spec %d: unknown target %q", i, s.Target)
		}
	}
	for i, f := range p.CkptFlips {
		if f.Load < 0 || f.Bit < 0 {
			return fmt.Errorf("faults: ckpt flip %d: negative load %d or bit %d", i, f.Load, f.Bit)
		}
	}
	return nil
}

// ValidateFor additionally checks the plan against a cluster size: node
// indices must exist and permanent crashes must leave at least one live
// worker.
func (p *Plan) ValidateFor(workers int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	check := func(node int, what string) error {
		if node >= workers {
			return fmt.Errorf("faults: %s targets node %d of a %d-worker cluster", what, node, workers)
		}
		return nil
	}
	permanentlyDead := map[int]bool{}
	for _, c := range p.Crashes {
		if err := check(c.Node, "crash"); err != nil {
			return err
		}
		if c.Permanent {
			permanentlyDead[c.Node] = true
		}
	}
	if len(permanentlyDead) >= workers {
		return fmt.Errorf("faults: plan permanently kills all %d workers", workers)
	}
	for _, w := range p.Slowdowns {
		if err := check(w.Node, "slowdown"); err != nil {
			return err
		}
	}
	for _, w := range p.DiskFaults {
		if err := check(w.Node, "disk fault"); err != nil {
			return err
		}
	}
	return nil
}

// ConfigError reports a nonsensical GenConfig field. Generate returns it
// instead of silently producing an empty or degenerate plan, so a chaos
// harness feeding randomized configurations learns which draw was invalid.
type ConfigError struct {
	// Field names the offending GenConfig field.
	Field string
	// Reason explains what is wrong with its value.
	Reason string
}

// Error implements the error interface.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("faults: bad GenConfig.%s: %s", e.Field, e.Reason)
}

// GenConfig parameterises Generate.
type GenConfig struct {
	// Seed drives every random draw.
	Seed int64
	// Workers is the cluster size the plan targets (>= 1).
	Workers int
	// Crashes is the number of node crashes to schedule.
	Crashes int
	// Permanent is how many of the crashes are permanent machine losses
	// (clamped to Workers-1 so the cluster survives).
	Permanent int
	// Correlated is how many additional transient crashes fire at the same
	// trigger as an already scheduled crash but on a different node,
	// modelling correlated failures (rack loss, shared power). Ignored when
	// no crash is scheduled or the cluster has a single worker.
	Correlated int
	// Repeats is how many additional transient crashes re-hit a node that
	// is already scheduled to crash, one stage after its previous crash —
	// back-to-back failures of the same node within one recovery window.
	// Ignored when no crash is scheduled.
	Repeats int
	// EvalPanics is the number of evaluator panics to inject and
	// TransformPanics the number of transform/source panics; each spec
	// injects PanicTimes failures.
	EvalPanics      int
	TransformPanics int
	// PanicTimes is the injection count per panic spec. 0 selects 1, which
	// is recoverable under the default 3-attempt retry policy, so choose
	// decisions are unaffected.
	PanicTimes int
	// Slowdowns and DiskFaults are the numbers of transient degradation
	// windows to schedule (whole-node and disk-only respectively).
	Slowdowns  int
	DiskFaults int
	// MaxFactor bounds the degradation factors drawn in (1, MaxFactor].
	// 0 selects 4; values in (0, 1] are rejected (degradation must degrade,
	// or the harness's bounded-overhead oracle would be meaningless).
	MaxFactor float64
	// WindowSec bounds the degradation windows: starts are drawn in
	// [0, WindowSec) and lengths in (0, WindowSec]. 0 selects 50; negative
	// values (zero-length windows) are rejected.
	WindowSec float64
	// MaxStage bounds the crash triggers: each crash fires after a stage
	// count drawn uniformly from [1, MaxStage]. 0 selects 20.
	MaxStage int
}

// validate rejects nonsensical fields with a *ConfigError.
func (cfg GenConfig) validate() error {
	if cfg.Workers < 1 {
		return &ConfigError{"Workers", fmt.Sprintf("need at least one worker, have %d", cfg.Workers)}
	}
	counts := []struct {
		name string
		v    int
	}{
		{"Crashes", cfg.Crashes}, {"Permanent", cfg.Permanent},
		{"Correlated", cfg.Correlated}, {"Repeats", cfg.Repeats},
		{"EvalPanics", cfg.EvalPanics}, {"TransformPanics", cfg.TransformPanics},
		{"PanicTimes", cfg.PanicTimes}, {"Slowdowns", cfg.Slowdowns},
		{"DiskFaults", cfg.DiskFaults}, {"MaxStage", cfg.MaxStage},
	}
	for _, c := range counts {
		if c.v < 0 {
			return &ConfigError{c.name, fmt.Sprintf("negative count %d", c.v)}
		}
	}
	if cfg.MaxFactor < 0 || (cfg.MaxFactor > 0 && cfg.MaxFactor <= 1) {
		return &ConfigError{"MaxFactor", fmt.Sprintf("degradation factor bound must exceed 1, have %g", cfg.MaxFactor)}
	}
	if cfg.WindowSec < 0 {
		return &ConfigError{"WindowSec", fmt.Sprintf("zero-length window bound %g", cfg.WindowSec)}
	}
	return nil
}

// Generate derives a concrete fault plan from the seed: crash nodes, trigger
// points, degradation windows and panic budgets are drawn from a
// deterministic RNG, so sweeping a fault rate reduces to increasing
// GenConfig.Crashes while holding the seed. Nonsensical configurations
// (negative rates, zero-length windows, factor bounds that do not degrade)
// are rejected with a *ConfigError; counts exceeding the cluster size
// (Permanent) are clamped as documented on the fields. The returned plan
// always passes ValidateFor(cfg.Workers).
func Generate(cfg GenConfig) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxStage < 1 {
		cfg.MaxStage = 20
	}
	if cfg.Permanent > cfg.Workers-1 {
		cfg.Permanent = cfg.Workers - 1
	}
	if cfg.PanicTimes < 1 {
		cfg.PanicTimes = 1
	}
	if cfg.MaxFactor == 0 {
		cfg.MaxFactor = 4
	}
	if cfg.WindowSec == 0 {
		cfg.WindowSec = 50
	}
	rng := stats.NewRNG(cfg.Seed)
	p := &Plan{Seed: cfg.Seed}
	permanentlyDead := map[int]bool{}
	for i := 0; i < cfg.Crashes; i++ {
		node := rng.Intn(cfg.Workers)
		permanent := i < cfg.Permanent
		if permanent {
			// Permanent losses pick distinct nodes so the live set
			// shrinks by exactly Permanent workers.
			for permanentlyDead[node] {
				node = (node + 1) % cfg.Workers
			}
			permanentlyDead[node] = true
		}
		p.Crashes = append(p.Crashes, Crash{
			Node:        node,
			AfterStages: 1 + rng.Intn(cfg.MaxStage),
			Permanent:   permanent,
		})
	}
	for i := 0; i < cfg.EvalPanics; i++ {
		p.Panics = append(p.Panics, PanicSpec{Target: TargetEval, Times: cfg.PanicTimes})
	}
	// Correlated crashes: a second node fails at the same trigger as an
	// already scheduled crash. Skipped on single-worker clusters, where no
	// distinct node exists.
	if len(p.Crashes) > 0 && cfg.Workers > 1 {
		for i := 0; i < cfg.Correlated; i++ {
			base := p.Crashes[rng.Intn(len(p.Crashes))]
			node := rng.Intn(cfg.Workers)
			for node == base.Node {
				node = (node + 1) % cfg.Workers
			}
			p.Crashes = append(p.Crashes, Crash{
				Node: node, AfterStages: base.AfterStages, At: base.At,
			})
		}
	}
	// Repeated crashes: the same node fails again one stage after a prior
	// (transient) crash, inside the recovery window of the first failure.
	// Permanent crashes are not repeated — the node is already gone.
	if cfg.Repeats > 0 {
		var transient []Crash
		for _, c := range p.Crashes {
			if !c.Permanent {
				transient = append(transient, c)
			}
		}
		for i := 0; i < cfg.Repeats && len(transient) > 0; i++ {
			base := transient[rng.Intn(len(transient))]
			p.Crashes = append(p.Crashes, Crash{
				Node: base.Node, AfterStages: base.AfterStages + 1, At: base.At,
			})
		}
	}
	window := func() Window {
		from := rng.Float64() * cfg.WindowSec
		length := rng.Float64() * cfg.WindowSec
		if length <= 0 {
			length = cfg.WindowSec
		}
		return Window{
			Node:   rng.Intn(cfg.Workers),
			From:   from,
			To:     from + length,
			Factor: 1 + rng.Float64()*(cfg.MaxFactor-1),
		}
	}
	for i := 0; i < cfg.Slowdowns; i++ {
		p.Slowdowns = append(p.Slowdowns, window())
	}
	for i := 0; i < cfg.DiskFaults; i++ {
		p.DiskFaults = append(p.DiskFaults, window())
	}
	for i := 0; i < cfg.TransformPanics; i++ {
		p.Panics = append(p.Panics, PanicSpec{Target: TargetTransform, Times: cfg.PanicTimes})
	}
	if err := p.ValidateFor(cfg.Workers); err != nil {
		return nil, err
	}
	return p, nil
}

// MustGenerate is Generate for configurations known to be valid; it panics
// on a ConfigError. For tests and fixed experiment configurations.
func MustGenerate(cfg GenConfig) *Plan {
	p, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// NumEvents returns the number of fault events the plan schedules: crashes,
// degradation windows and panic specs. The chaos shrinker minimizes this.
func (p *Plan) NumEvents() int {
	return len(p.Crashes) + len(p.Slowdowns) + len(p.DiskFaults) + len(p.Panics) + len(p.CkptFlips)
}

// Event records one delivered fault for telemetry: what was injected,
// where, and any context. Events accumulate in injection order, which the
// engine's deterministic run loop makes reproducible.
type Event struct {
	// Kind is "crash", "slowdown", "diskfault" or "panic".
	Kind string
	// Node is the afflicted worker (-1 for panics, which target operators).
	Node int
	// Op is the operator a panic was injected into; empty otherwise.
	Op string
	// Detail is free-form context (permanence, window factor, target).
	Detail string
}

// Injector is the per-run consumer of a Plan: it tracks which crashes have
// fired, which degradation windows have activated, and how many injected
// panics each spec has left, so every fault is delivered exactly once.
type Injector struct {
	plan       *Plan
	retry      RetryPolicy
	crashFired []bool
	slowSeen   []bool
	diskSeen   []bool
	panicLeft  []int
	flipUsed   []bool
	ckptLoads  int
	injected   int
	history    []Event
}

// NewInjector prepares an injector for one run of the plan.
func NewInjector(p *Plan) *Injector {
	in := &Injector{
		plan:       p,
		retry:      p.Retry.withDefaults(),
		crashFired: make([]bool, len(p.Crashes)),
		slowSeen:   make([]bool, len(p.Slowdowns)),
		diskSeen:   make([]bool, len(p.DiskFaults)),
		panicLeft:  make([]int, len(p.Panics)),
		flipUsed:   make([]bool, len(p.CkptFlips)),
	}
	for i, s := range p.Panics {
		in.panicLeft[i] = s.Times
	}
	return in
}

// Retry returns the plan's retry policy with defaults applied.
func (in *Injector) Retry() RetryPolicy { return in.retry }

// Injected returns the number of fault events delivered so far: crashes
// fired, windows activated, and panics injected.
func (in *Injector) Injected() int { return in.injected }

// History returns the delivered fault events in injection order.
func (in *Injector) History() []Event { return append([]Event(nil), in.history...) }

// record appends one delivered fault to the history alongside the counter.
func (in *Injector) record(ev Event) {
	in.injected++
	in.history = append(in.history, ev)
}

// DueCrashes returns the crashes whose triggers have been reached, marking
// them fired.
func (in *Injector) DueCrashes(stagesExecuted int, now float64) []Crash {
	var due []Crash
	for i, c := range in.plan.Crashes {
		if in.crashFired[i] {
			continue
		}
		if stagesExecuted >= c.AfterStages && now >= c.At {
			in.crashFired[i] = true
			detail := "transient"
			if c.Permanent {
				detail = "permanent"
			}
			in.record(Event{Kind: "crash", Node: c.Node, Detail: detail})
			due = append(due, c)
		}
	}
	return due
}

// TransientFactors returns the combined slowdown and disk-degradation
// multipliers active on the node at virtual time now (1 when none).
func (in *Injector) TransientFactors(node int, now float64) (slow, disk float64) {
	slow, disk = 1, 1
	for i, w := range in.plan.Slowdowns {
		if w.Node != node || !w.active(now) {
			continue
		}
		slow *= w.Factor
		if !in.slowSeen[i] {
			in.slowSeen[i] = true
			in.record(Event{Kind: "slowdown", Node: w.Node, Detail: fmt.Sprintf("factor=%g", w.Factor)})
		}
	}
	for i, w := range in.plan.DiskFaults {
		if w.Node != node || !w.active(now) {
			continue
		}
		disk *= w.Factor
		if !in.diskSeen[i] {
			in.diskSeen[i] = true
			in.record(Event{Kind: "diskfault", Node: w.Node, Detail: fmt.Sprintf("factor=%g", w.Factor)})
		}
	}
	return slow, disk
}

// TakePanic reports whether the next invocation of the named operator must
// panic, consuming one injection from the first matching spec with budget.
func (in *Injector) TakePanic(op string, target PanicTarget) bool {
	for i, s := range in.plan.Panics {
		st := s.Target
		if st == "" {
			st = TargetEval
		}
		if st != target || in.panicLeft[i] <= 0 {
			continue
		}
		if s.Op != "" && s.Op != op {
			continue
		}
		in.panicLeft[i]--
		in.record(Event{Kind: "panic", Node: -1, Op: op, Detail: string(target)})
		return true
	}
	return false
}
