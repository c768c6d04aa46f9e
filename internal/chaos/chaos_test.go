package chaos

import (
	"bytes"
	"strings"
	"testing"

	"metadataflow/internal/faults"
	"metadataflow/internal/obs"
	"metadataflow/internal/sim"
)

// TestShortSweepAllOraclesPass is the deterministic chaos sweep wired into
// go test: a fixed seed, enough trials to hit crashes, panics, quarantines
// and near-OOM budgets, and zero tolerated violations.
func TestShortSweepAllOraclesPass(t *testing.T) {
	var log bytes.Buffer
	res, err := Sweep(1234, 12, "", &log)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if res.Violations != 0 {
		t.Fatalf("sweep found %d violations:\n%s", res.Violations, log.String())
	}
	if res.Trials != 12 {
		t.Fatalf("trials = %d, want 12", res.Trials)
	}
}

func TestSweepLogIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := Sweep(7, 4, "", &a); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	if _, err := Sweep(7, 4, "", &b); err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("same-seed sweeps diverge:\n--- a ---\n%s--- b ---\n%s", a.String(), b.String())
	}
}

func TestGenTrialSpecDeterministicAndValid(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, err := GenTrialSpec(99, i)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		b, err := GenTrialSpec(99, i)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("trial %d invalid: %v", i, err)
		}
		if a.Workers != b.Workers || a.MemPerWorkerMB != b.MemPerWorkerMB ||
			a.Faults.NumEvents() != b.Faults.NumEvents() {
			t.Fatalf("trial %d not deterministic: %+v vs %+v", i, a, b)
		}
	}
}

// passingOutcome fabricates the outcome of a healthy run.
func passingOutcome(completion sim.VTime) *Outcome {
	s := obs.NewSnapshot()
	s.AddCounter("mem.pinned_partitions", 0)
	s.Nodes = append(s.Nodes, obs.NodeSnapshot{ID: 0, Alive: true, ResidentBytes: 100, CapacityBytes: 1000})
	s.Normalize()
	return &Outcome{
		Completion: completion,
		Snapshot:   s,
		Selections: map[string][]int{"T3[choose]": {1}},
		Checksums:  []uint64{0xabc, 0xdef},
	}
}

func oracleNames(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Oracle)
	}
	return out
}

func testSpec() *TrialSpec {
	return &TrialSpec{Faults: &faults.Plan{Crashes: []faults.Crash{{Node: 0, AfterStages: 1}}}}
}

func TestOraclesPassOnHealthyPair(t *testing.T) {
	vs := CheckOracles(testSpec(), passingOutcome(10), passingOutcome(11), "")
	if len(vs) != 0 {
		t.Fatalf("violations on healthy pair: %v", vs)
	}
}

// TestAccountingOracleCatchesInjectedBug corrupts the faulted outcome the
// way an allocator-accounting bug would surface — the acceptance-criteria
// test double: resident bytes over budget in the snapshot, a leftover pin,
// a per-sample breach and an audit drift must each be flagged.
func TestAccountingOracleCatchesInjectedBug(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*Outcome)
	}{
		{"resident over budget", func(o *Outcome) {
			o.Snapshot.Nodes[0].ResidentBytes = 2000
		}},
		{"leftover pin", func(o *Outcome) {
			s := obs.NewSnapshot()
			s.AddCounter("mem.pinned_partitions", 1)
			s.Normalize()
			o.Snapshot = s
		}},
		{"per-sample breach", func(o *Outcome) {
			o.ResidentOver = []string{"node 0 resident 2000 bytes > budget 1000 at t=3.000"}
		}},
		{"audit drift", func(o *Outcome) {
			o.Accounting = []string{"node 0: used=2000 but resident entries sum to 1000"}
		}},
	}
	for _, c := range cases {
		faulted := passingOutcome(11)
		c.corrupt(faulted)
		vs := CheckOracles(testSpec(), passingOutcome(10), faulted, OracleAccounting)
		if len(vs) == 0 {
			t.Errorf("%s: accounting oracle did not fire", c.name)
			continue
		}
		for _, v := range vs {
			if v.Oracle != OracleAccounting {
				t.Errorf("%s: unexpected oracle %s", c.name, v.Oracle)
			}
		}
	}
}

func TestEquivalenceOracleCatchesDivergence(t *testing.T) {
	faulted := passingOutcome(11)
	faulted.Selections = map[string][]int{"T3[choose]": {2}}
	vs := CheckOracles(testSpec(), passingOutcome(10), faulted, OracleEquivalence)
	if len(vs) == 0 || vs[0].Oracle != OracleEquivalence {
		t.Fatalf("selection divergence not flagged: %v", vs)
	}

	faulted = passingOutcome(11)
	faulted.Checksums = []uint64{0xabc, 0xbad}
	vs = CheckOracles(testSpec(), passingOutcome(10), faulted, OracleEquivalence)
	if len(vs) == 0 || !strings.Contains(vs[0].Detail, "checksum") {
		t.Fatalf("checksum divergence not flagged: %v", vs)
	}

	// A quarantined branch legitimately changes the selection: no violation.
	faulted = passingOutcome(11)
	faulted.Selections = map[string][]int{"T3[choose]": {2}}
	faulted.Quarantined = 1
	if vs := CheckOracles(testSpec(), passingOutcome(10), faulted, OracleEquivalence); len(vs) != 0 {
		t.Fatalf("equivalence checked despite quarantine: %v", vs)
	}
}

func TestLineageAndVTimeOracles(t *testing.T) {
	faulted := passingOutcome(11)
	faulted.Lineage = []string{"lost: partition 0 of live dataset \"results\" missing at its home node 1"}
	vs := CheckOracles(testSpec(), passingOutcome(10), faulted, OracleLineage)
	if len(vs) != 1 || vs[0].Oracle != OracleLineage {
		t.Fatalf("lineage violation not flagged: %v", vs)
	}

	faulted = passingOutcome(11)
	faulted.NegativeSpans = 2
	vs = CheckOracles(testSpec(), passingOutcome(10), faulted, OracleVTime)
	if len(vs) != 1 || vs[0].Oracle != OracleVTime {
		t.Fatalf("negative span not flagged: %v", vs)
	}
}

// A span the engine reports as ending before it starts must reach the
// virtual-time oracle: the Recorder clamps such an end to the start, so the
// probe has to count it from the calls themselves.
func TestReversedSpanReachesVTimeOracle(t *testing.T) {
	probe := &countingProbe{Recorder: obs.NewRecorder()}
	probe.Span(0, obs.KindStage, "healthy", 1, 2)
	probe.Span(0, obs.KindStage, "reversed", 5, 3)
	for _, s := range probe.Spans() {
		if s.End < s.Start {
			t.Fatalf("recorder retained a reversed span %+v; the probe-side count is redundant", s)
		}
	}
	if probe.reversed != 1 {
		t.Fatalf("reversed = %d, want 1", probe.reversed)
	}
	faulted := passingOutcome(11)
	faulted.NegativeSpans = probe.reversed
	vs := CheckOracles(testSpec(), passingOutcome(10), faulted, OracleVTime)
	if len(vs) != 1 || vs[0].Oracle != OracleVTime {
		t.Fatalf("reversed span not flagged: %v", vs)
	}
}

func TestOverheadOracleBounds(t *testing.T) {
	// The lower bound applies to crash-free plans (windows and panics only
	// ever add time).
	windowSpec := &TrialSpec{Faults: &faults.Plan{
		Slowdowns: []faults.Window{{Node: 0, From: 0, To: 10, Factor: 2}},
	}}
	vs := CheckOracles(windowSpec, passingOutcome(100), passingOutcome(10), OracleOverhead)
	if len(vs) != 1 || vs[0].Oracle != OracleOverhead {
		t.Fatalf("early finish not flagged: %v", vs)
	}
	// Quarantine legitimately sheds work: no lower-bound violation then.
	faulted := passingOutcome(10)
	faulted.Quarantined = 1
	if vs := CheckOracles(windowSpec, passingOutcome(100), faulted, OracleOverhead); len(vs) != 0 {
		t.Fatalf("early finish flagged despite quarantine: %v", vs)
	}
	// Crash recovery can rewarm the cache, so crash plans skip the lower
	// bound too.
	if vs := CheckOracles(testSpec(), passingOutcome(100), passingOutcome(10), OracleOverhead); len(vs) != 0 {
		t.Fatalf("early finish flagged despite crash plan: %v", vs)
	}
	// Blowing past the recovery envelope breaks the upper bound.
	vs = CheckOracles(testSpec(), passingOutcome(10), passingOutcome(10000), OracleOverhead)
	if len(vs) != 1 || vs[0].Oracle != OracleOverhead {
		t.Fatalf("runaway overhead not flagged: %v", vs)
	}
}

func TestRunFailureOracle(t *testing.T) {
	faulted := &Outcome{Err: errOutcome("boom")}
	vs := CheckOracles(testSpec(), passingOutcome(10), faulted, "")
	if len(vs) != 1 || vs[0].Oracle != OracleRunFailure {
		t.Fatalf("run failure not flagged: %v", vs)
	}
}

type errOutcome string

func (e errOutcome) Error() string { return string(e) }

func TestUnknownOracleFilterRejected(t *testing.T) {
	if err := ValidateFilter("equivalence,nonsense"); err == nil {
		t.Fatal("unknown oracle name accepted")
	}
	if err := ValidateFilter("equivalence, accounting"); err != nil {
		t.Fatalf("valid filter rejected: %v", err)
	}
}

// TestShrinkerMinimizesToCulprit drives the delta-debugging shrinker with a
// synthetic predicate: the "bug" reproduces whenever the plan still crashes
// node 2. From a 9-event plan the shrinker must isolate that single event —
// well within the acceptance bound of <= 3 events.
func TestShrinkerMinimizesToCulprit(t *testing.T) {
	plan := faults.MustGenerate(faults.GenConfig{
		Seed: 5, Workers: 4, Crashes: 3, Permanent: 1, EvalPanics: 2,
		Slowdowns: 2, DiskFaults: 2, PanicTimes: 2,
	})
	// Ensure the culprit event is present regardless of the seed's draws.
	plan.Crashes = append(plan.Crashes, faults.Crash{Node: 2, AfterStages: 5, Permanent: true})
	check := func(p *faults.Plan) bool {
		for _, c := range p.Crashes {
			if c.Node == 2 {
				return true
			}
		}
		return false
	}
	shrunk, runs := ShrinkPlan(plan, 4, 400, check)
	if got := shrunk.NumEvents(); got > 3 {
		t.Fatalf("shrunk to %d events, want <= 3 (plan: %+v)", got, shrunk)
	}
	if !check(shrunk) {
		t.Fatal("shrunk plan no longer reproduces the violation")
	}
	if runs == 0 {
		t.Fatal("shrinker did not try any candidates")
	}
	// Field shrinking must also have simplified the surviving crash.
	for _, c := range shrunk.Crashes {
		if c.Node == 2 && c.Permanent {
			t.Error("culprit crash still permanent; field shrinking missed it")
		}
	}
}

// TestEndToEndInjectedViolationShrinks wires a genuine oracle through the
// sweep machinery: the accounting oracle is fed a corrupted outcome via a
// predicate closure, mimicking an allocator bug triggered by any crash of
// node 1, and the shrinker reduces a multi-event plan to the minimal repro.
func TestEndToEndInjectedViolationShrinks(t *testing.T) {
	plan := faults.MustGenerate(faults.GenConfig{
		Seed: 8, Workers: 4, Crashes: 4, Slowdowns: 2, EvalPanics: 1,
	})
	plan.Crashes = append(plan.Crashes, faults.Crash{Node: 1, AfterStages: 2})
	bug := func(p *faults.Plan) bool {
		// Simulated engine-with-bug: crashing node 1 corrupts accounting.
		for _, c := range p.Crashes {
			if c.Node == 1 {
				golden, faulted := passingOutcome(10), passingOutcome(11)
				faulted.Snapshot.Nodes[0].ResidentBytes = 5000
				vs := CheckOracles(testSpec(), golden, faulted, OracleAccounting)
				return len(vs) > 0
			}
		}
		return false
	}
	shrunk, _ := ShrinkPlan(plan, 4, 400, bug)
	if got := shrunk.NumEvents(); got > 3 {
		t.Fatalf("injected accounting bug shrunk to %d events, want <= 3", got)
	}
	if !bug(shrunk) {
		t.Fatal("shrunk plan no longer triggers the injected bug")
	}
}

func TestReproRoundTripAndReplay(t *testing.T) {
	spec, err := GenTrialSpec(42, 0)
	if err != nil {
		t.Fatalf("GenTrialSpec: %v", err)
	}
	r := &Repro{Schema: ReproSchema, Oracle: OracleAccounting, Detail: "test", Trial: spec}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !IsRepro(buf.Bytes()) {
		t.Fatal("serialized repro not recognised")
	}
	parsed, err := ParseRepro(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseRepro: %v", err)
	}
	if parsed.Oracle != OracleAccounting || parsed.Trial.Workers != spec.Workers {
		t.Fatalf("round trip lost data: %+v", parsed)
	}
	// The current engine is healthy, so replaying must report no violations.
	vs, err := Replay(parsed)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(vs) != 0 {
		t.Fatalf("healthy engine violates on replay: %v", vs)
	}
	if IsRepro([]byte(`{"crashes": [{"node": 0}]}`)) {
		t.Fatal("bare fault plan misdetected as repro")
	}
	if _, err := ParseRepro([]byte(`{"schema": "mdf.chaos-repro/v1", "trial": {}}`)); err == nil {
		t.Fatal("invalid trial accepted")
	}
}
