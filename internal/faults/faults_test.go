package faults

import (
	"errors"
	"testing"
)

func TestParseAndValidate(t *testing.T) {
	p, err := Parse([]byte(`{
		"retry": {"maxAttempts": 2, "backoffSec": 0.5},
		"crashes": [{"node": 1, "afterStages": 3}, {"node": 2, "at": 10.5, "permanent": true}],
		"slowdowns": [{"node": 0, "from": 1, "to": 5, "factor": 4}],
		"diskFaults": [{"node": 3, "factor": 2}],
		"panics": [{"op": "filter", "target": "transform", "times": 1}]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Crashes) != 2 || !p.Crashes[1].Permanent || p.Crashes[1].At != 10.5 {
		t.Fatalf("crashes decoded wrong: %+v", p.Crashes)
	}
	if err := p.ValidateFor(4); err != nil {
		t.Fatalf("ValidateFor(4): %v", err)
	}
	if err := p.ValidateFor(2); err == nil {
		t.Fatal("node 3 must not fit a 2-worker cluster")
	}
}

func TestParseRejectsBadPlans(t *testing.T) {
	cases := []string{
		`{"crashes": [{"node": -1}]}`,
		`{"slowdowns": [{"node": 0, "factor": 0}]}`,
		`{"slowdowns": [{"node": 0, "from": 5, "to": 3, "factor": 2}]}`,
		`{"panics": [{"times": 0}]}`,
		`{"panics": [{"times": 1, "target": "nonsense"}]}`,
		`not json`,
	}
	for i, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("case %d: bad plan accepted: %s", i, c)
		}
	}
}

func TestValidateForRejectsTotalLoss(t *testing.T) {
	p := &Plan{Crashes: []Crash{{Node: 0, Permanent: true}, {Node: 1, Permanent: true}}}
	if err := p.ValidateFor(2); err == nil {
		t.Fatal("a plan permanently killing every worker must be rejected")
	}
	if err := p.ValidateFor(3); err != nil {
		t.Fatalf("one survivor left, plan should be valid: %v", err)
	}
}

func TestRetryDefaultsAndBackoff(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != 3 || p.BackoffSec != 1 {
		t.Fatalf("defaults = %+v, want {3, 1}", p)
	}
	if p.Backoff(1) != 1 || p.Backoff(2) != 2 || p.Backoff(3) != 4 {
		t.Fatalf("backoff sequence = %v %v %v, want 1 2 4",
			p.Backoff(1), p.Backoff(2), p.Backoff(3))
	}
}

func TestGenerateDeterministicAndBounded(t *testing.T) {
	cfg := GenConfig{Seed: 7, Workers: 4, Crashes: 5, Permanent: 2, EvalPanics: 1, MaxStage: 10}
	a, b := MustGenerate(cfg), MustGenerate(cfg)
	if len(a.Crashes) != 5 || len(a.Panics) != 1 {
		t.Fatalf("generated plan shape wrong: %+v", a)
	}
	for i := range a.Crashes {
		if a.Crashes[i] != b.Crashes[i] {
			t.Fatal("same seed must generate the same plan")
		}
		if c := a.Crashes[i]; c.Node < 0 || c.Node >= 4 || c.AfterStages < 1 || c.AfterStages > 10 {
			t.Fatalf("crash out of bounds: %+v", c)
		}
	}
	if err := a.ValidateFor(4); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	perm := map[int]bool{}
	for _, c := range a.Crashes {
		if c.Permanent {
			perm[c.Node] = true
		}
	}
	if len(perm) != 2 {
		t.Fatalf("permanent crashes must hit distinct nodes, got %v", perm)
	}
}

func TestGenerateRejectsNonsense(t *testing.T) {
	cases := []struct {
		name  string
		cfg   GenConfig
		field string
	}{
		{"no workers", GenConfig{Workers: 0}, "Workers"},
		{"negative workers", GenConfig{Workers: -2}, "Workers"},
		{"negative crashes", GenConfig{Workers: 4, Crashes: -1}, "Crashes"},
		{"negative permanent", GenConfig{Workers: 4, Permanent: -3}, "Permanent"},
		{"negative correlated", GenConfig{Workers: 4, Correlated: -1}, "Correlated"},
		{"negative repeats", GenConfig{Workers: 4, Repeats: -1}, "Repeats"},
		{"negative eval panics", GenConfig{Workers: 4, EvalPanics: -1}, "EvalPanics"},
		{"negative transform panics", GenConfig{Workers: 4, TransformPanics: -1}, "TransformPanics"},
		{"negative panic times", GenConfig{Workers: 4, PanicTimes: -1}, "PanicTimes"},
		{"negative slowdowns", GenConfig{Workers: 4, Slowdowns: -2}, "Slowdowns"},
		{"negative disk faults", GenConfig{Workers: 4, DiskFaults: -2}, "DiskFaults"},
		{"negative max stage", GenConfig{Workers: 4, MaxStage: -5}, "MaxStage"},
		{"negative factor", GenConfig{Workers: 4, MaxFactor: -2}, "MaxFactor"},
		{"non-degrading factor", GenConfig{Workers: 4, MaxFactor: 0.5}, "MaxFactor"},
		{"factor exactly one", GenConfig{Workers: 4, MaxFactor: 1}, "MaxFactor"},
		{"zero-length window", GenConfig{Workers: 4, WindowSec: -1}, "WindowSec"},
	}
	for _, c := range cases {
		_, err := Generate(c.cfg)
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: err = %v, want *ConfigError", c.name, err)
			continue
		}
		if cerr.Field != c.field {
			t.Errorf("%s: flagged field %q, want %q", c.name, cerr.Field, c.field)
		}
	}
}

func TestGenerateClampsExcessPermanent(t *testing.T) {
	// Permanent crashes exceeding the cluster size are clamped to Workers-1
	// so the generated plan always leaves a survivor.
	p := MustGenerate(GenConfig{Seed: 1, Workers: 3, Crashes: 6, Permanent: 6})
	perm := map[int]bool{}
	for _, c := range p.Crashes {
		if c.Permanent {
			perm[c.Node] = true
		}
	}
	if len(perm) != 2 {
		t.Fatalf("permanent deaths = %d, want 2 (Workers-1)", len(perm))
	}
	if err := p.ValidateFor(3); err != nil {
		t.Fatalf("clamped plan invalid: %v", err)
	}
}

func TestGenerateCorrelatedAndRepeatedCrashes(t *testing.T) {
	cfg := GenConfig{Seed: 11, Workers: 4, Crashes: 2, Correlated: 2, Repeats: 2, MaxStage: 6}
	p := MustGenerate(cfg)
	if got := len(p.Crashes); got != 6 {
		t.Fatalf("crashes = %d, want 2 base + 2 correlated + 2 repeats", got)
	}
	base := p.Crashes[:2]
	sameTrigger := func(a, b Crash) bool { return a.AfterStages == b.AfterStages && a.At == b.At }
	for i, c := range p.Crashes[2:4] {
		matched := false
		for _, b := range base {
			if sameTrigger(b, c) && b.Node != c.Node {
				matched = true
			}
		}
		if !matched {
			t.Errorf("correlated crash %d = %+v does not share a trigger with a base crash on another node", i, c)
		}
	}
	for i, c := range p.Crashes[4:6] {
		matched := false
		for _, b := range p.Crashes[:4] {
			if b.Node == c.Node && c.AfterStages == b.AfterStages+1 && !b.Permanent {
				matched = true
			}
		}
		if !matched {
			t.Errorf("repeat crash %d = %+v does not re-hit a transient crash one stage later", i, c)
		}
	}
	if err := p.ValidateFor(4); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
}

func TestGenerateWindowsAndPanics(t *testing.T) {
	cfg := GenConfig{
		Seed: 3, Workers: 4, Slowdowns: 3, DiskFaults: 2,
		TransformPanics: 2, EvalPanics: 1, PanicTimes: 2,
		MaxFactor: 5, WindowSec: 30,
	}
	p := MustGenerate(cfg)
	if len(p.Slowdowns) != 3 || len(p.DiskFaults) != 2 {
		t.Fatalf("windows = %d/%d, want 3/2", len(p.Slowdowns), len(p.DiskFaults))
	}
	for _, w := range append(append([]Window{}, p.Slowdowns...), p.DiskFaults...) {
		if w.Factor <= 1 || w.Factor > 5 {
			t.Errorf("window factor %g outside (1, 5]", w.Factor)
		}
		if w.To <= w.From {
			t.Errorf("zero-length window generated: %+v", w)
		}
		if w.From < 0 || w.To > 60 {
			t.Errorf("window [%g, %g) outside expected bounds", w.From, w.To)
		}
	}
	if len(p.Panics) != 3 {
		t.Fatalf("panics = %d, want 3", len(p.Panics))
	}
	evals, transforms := 0, 0
	for _, ps := range p.Panics {
		if ps.Times != 2 {
			t.Errorf("panic times = %d, want 2", ps.Times)
		}
		switch ps.Target {
		case TargetEval:
			evals++
		case TargetTransform:
			transforms++
		}
	}
	if evals != 1 || transforms != 2 {
		t.Fatalf("panic targets = %d eval / %d transform, want 1/2", evals, transforms)
	}
	if p.NumEvents() != 3+2+3 {
		t.Fatalf("NumEvents = %d, want 8", p.NumEvents())
	}
}

func TestInjectorCrashFiresOnce(t *testing.T) {
	p := &Plan{Crashes: []Crash{{Node: 0, AfterStages: 2}, {Node: 1, At: 100}}}
	in := NewInjector(p)
	if due := in.DueCrashes(1, 0); len(due) != 0 {
		t.Fatalf("nothing due yet, got %v", due)
	}
	due := in.DueCrashes(2, 0)
	if len(due) != 1 || due[0].Node != 0 {
		t.Fatalf("due = %v, want crash of node 0", due)
	}
	if due := in.DueCrashes(3, 50); len(due) != 0 {
		t.Fatalf("fired crash must not repeat, got %v", due)
	}
	due = in.DueCrashes(3, 100)
	if len(due) != 1 || due[0].Node != 1 {
		t.Fatalf("due = %v, want time-triggered crash of node 1", due)
	}
	if in.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", in.Injected())
	}
}

func TestInjectorImmediateCrash(t *testing.T) {
	// {node: 0} with zero triggers fires before the first stage.
	in := NewInjector(&Plan{Crashes: []Crash{{Node: 0}}})
	if due := in.DueCrashes(0, 0); len(due) != 1 {
		t.Fatalf("due = %v, want immediate crash", due)
	}
}

func TestInjectorTransientFactors(t *testing.T) {
	p := &Plan{
		Slowdowns:  []Window{{Node: 1, From: 10, To: 20, Factor: 3}},
		DiskFaults: []Window{{Node: 1, From: 0, Factor: 2}}, // open window
	}
	in := NewInjector(p)
	slow, disk := in.TransientFactors(1, 5)
	if slow != 1 || disk != 2 {
		t.Fatalf("factors at t=5 = (%v, %v), want (1, 2)", slow, disk)
	}
	slow, disk = in.TransientFactors(1, 10)
	if slow != 3 || disk != 2 {
		t.Fatalf("factors at t=10 = (%v, %v), want (3, 2)", slow, disk)
	}
	if slow, _ = in.TransientFactors(1, 20); slow != 1 {
		t.Fatalf("window [10,20) must be closed at t=20, slow = %v", slow)
	}
	if slow, _ = in.TransientFactors(0, 15); slow != 1 {
		t.Fatal("other nodes must be unaffected")
	}
	if in.Injected() != 2 {
		t.Fatalf("injected = %d, want 2 window activations counted once", in.Injected())
	}
}

func TestInjectorTakePanic(t *testing.T) {
	p := &Plan{Panics: []PanicSpec{
		{Op: "score", Times: 1}, // empty target defaults to eval
		{Target: TargetTransform, Times: 2},
	}}
	in := NewInjector(p)
	if in.TakePanic("other", TargetEval) {
		t.Fatal("op filter must not match a different operator")
	}
	if !in.TakePanic("score", TargetEval) {
		t.Fatal("matching eval panic must fire")
	}
	if in.TakePanic("score", TargetEval) {
		t.Fatal("budget of 1 must be exhausted")
	}
	if !in.TakePanic("any", TargetTransform) || !in.TakePanic("any", TargetTransform) {
		t.Fatal("wildcard transform spec must fire twice")
	}
	if in.TakePanic("any", TargetTransform) {
		t.Fatal("transform budget exhausted")
	}
	if in.Injected() != 3 {
		t.Fatalf("injected = %d, want 3", in.Injected())
	}
}

// TestRetryPolicyTable pins the effective policy produced by WithDefaults
// and the exact exponential backoff schedule for each configuration. The
// service layer's retry/quarantine logic depends on these values: a spec
// that panics on every attempt is retried MaxAttempts-1 times, accruing
// the cumulative backoff, before its tenant accrues a quarantine strike.
func TestRetryPolicyTable(t *testing.T) {
	cases := []struct {
		name     string
		in       RetryPolicy
		want     RetryPolicy
		schedule []float64 // Backoff(1..n)
		total    float64   // cumulative backoff across all failed attempts
	}{
		{
			name:     "zero value fills both defaults",
			in:       RetryPolicy{},
			want:     RetryPolicy{MaxAttempts: 3, BackoffSec: 1},
			schedule: []float64{1, 2, 4},
			total:    7,
		},
		{
			name:     "negative fields treated as unset",
			in:       RetryPolicy{MaxAttempts: -2, BackoffSec: -0.5},
			want:     RetryPolicy{MaxAttempts: 3, BackoffSec: 1},
			schedule: []float64{1, 2, 4},
			total:    7,
		},
		{
			name:     "attempts kept, backoff filled",
			in:       RetryPolicy{MaxAttempts: 5},
			want:     RetryPolicy{MaxAttempts: 5, BackoffSec: 1},
			schedule: []float64{1, 2, 4, 8, 16},
			total:    31,
		},
		{
			name:     "backoff kept, attempts filled",
			in:       RetryPolicy{BackoffSec: 0.25},
			want:     RetryPolicy{MaxAttempts: 3, BackoffSec: 0.25},
			schedule: []float64{0.25, 0.5, 1},
			total:    1.75,
		},
		{
			name:     "fully specified passes through",
			in:       RetryPolicy{MaxAttempts: 2, BackoffSec: 3},
			want:     RetryPolicy{MaxAttempts: 2, BackoffSec: 3},
			schedule: []float64{3, 6},
			total:    9,
		},
		{
			name:     "single attempt never backs off",
			in:       RetryPolicy{MaxAttempts: 1, BackoffSec: 10},
			want:     RetryPolicy{MaxAttempts: 1, BackoffSec: 10},
			schedule: []float64{10},
			total:    10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.WithDefaults()
			if got != tc.want {
				t.Fatalf("WithDefaults() = %+v, want %+v", got, tc.want)
			}
			var total float64
			for i, want := range tc.schedule {
				if b := got.Backoff(i + 1); b != want {
					t.Errorf("Backoff(%d) = %v, want %v", i+1, b, want)
				}
				total += got.Backoff(i + 1)
			}
			if total != tc.total {
				t.Errorf("cumulative backoff = %v, want %v", total, tc.total)
			}
		})
	}
}

// TestRetryPolicyServiceBudget pins the numbers the service quarantine test
// observes: the default policy grants 3 attempts, so a spec that always
// panics is retried twice and accrues 1+2 = 3 virtual seconds of backoff
// before the job fails and the tenant takes a strike.
func TestRetryPolicyServiceBudget(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	retries := p.MaxAttempts - 1
	if retries != 2 {
		t.Fatalf("default retries = %d, want 2", retries)
	}
	var budget float64
	for a := 1; a <= retries; a++ {
		budget += p.Backoff(a)
	}
	if budget != 3 {
		t.Fatalf("default retry backoff budget = %v, want 3", budget)
	}
}
