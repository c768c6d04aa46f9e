package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/stats"
)

// The tests of ahead.go. The reference every one of them compares with is
// the run under runtime.GOMAXPROCS(1): there no token exists, no stage is
// offered, and execStage computes each stage where it is picked, operator
// by operator under the retry loop, as the engine did before it had a `go`
// statement.

// withProcs runs f under GOMAXPROCS(n). The tests that want the pool set 4:
// on a single-CPU runner they would otherwise pass having tested nothing.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// idProbe notes the ID of every dataset at its first registration.
type idProbe struct {
	*obs.Recorder
	seen map[int64]bool
	ids  []int64
}

func (p *idProbe) RegisterDataset(id int64, name string) {
	if !p.seen[id] {
		p.seen[id] = true
		p.ids = append(p.ids, id)
	}
	p.Recorder.RegisterDataset(id, name)
}

// observed is everything of a run that must not depend on who computed what.
type observed struct {
	err         string
	end         string
	metrics     Metrics
	quarantined []QuarantineRecord
	selections  map[string][]int
	rows        []dataset.Row
	telemetry   []byte // Chrome trace, decision log, mdf.series/v1, snapshot
	ids         []int64
	adopted     int // stages whose result was computed ahead of their pick
}

func observeRun(t *testing.T, g *graph.Graph, opts Options) observed {
	t.Helper()
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	probe := &idProbe{Recorder: obs.NewRecorder(), seen: map[int64]bool{}}
	opts.Probe = probe
	run, err := NewRun(plan, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var o observed
	res, err := run.RunToCompletion()
	if err != nil {
		o.err = err.Error()
		res = run.Result()
	}
	o.end = fmt.Sprint(res.End)
	o.metrics, o.quarantined = res.Metrics, res.Quarantined
	o.selections = run.ChooseSelections()
	if res.Output != nil {
		o.rows = res.Output.Rows()
	}
	var buf bytes.Buffer
	for _, write := range []func() error{
		func() error { return probe.WriteChromeTrace(&buf) },
		func() error { return probe.WriteDecisions(&buf) },
		func() error { return probe.Series(0).WriteJSON(&buf) },
		func() error { return run.Snapshot().WriteJSON(&buf) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	o.telemetry, o.ids, o.adopted = buf.Bytes(), probe.ids, run.adoptedAhead
	return o
}

// diff names the first thing in which two observations differ.
func (a observed) diff(b observed) string {
	switch {
	case a.err != b.err:
		return fmt.Sprintf("error %q vs %q", a.err, b.err)
	case a.end != b.end:
		return fmt.Sprintf("virtual end %s vs %s", a.end, b.end)
	case a.metrics != b.metrics:
		return fmt.Sprintf("metrics\n %+v\nvs\n %+v", a.metrics, b.metrics)
	case !reflect.DeepEqual(a.quarantined, b.quarantined):
		return fmt.Sprintf("quarantine records %v vs %v", a.quarantined, b.quarantined)
	case !reflect.DeepEqual(a.selections, b.selections):
		return fmt.Sprintf("selections %v vs %v", a.selections, b.selections)
	case !reflect.DeepEqual(a.rows, b.rows):
		return fmt.Sprintf("output rows differ (%d vs %d)", len(a.rows), len(b.rows))
	case !bytes.Equal(a.telemetry, b.telemetry):
		i := firstDiff(a.telemetry, b.telemetry)
		lo := max(0, i-200)
		return fmt.Sprintf("telemetry bytes differ at %d:\n ...%s\nvs\n ...%s", i,
			a.telemetry[lo:min(len(a.telemetry), i+100)], b.telemetry[lo:min(len(b.telemetry), i+100)])
	}
	return ""
}

// TestSerialEqualsPooled is the oracle of the compute-ahead path: over
// random nested MDFs whose stages straddle the gate (rows scaled eightfold,
// half the branch operators carrying a FixedCost), under every scheduler and
// hint, incremental or not, with and without a fault plan that crashes a
// node, slows another, and injects transform and evaluator panics through to
// quarantine, everything a run reports — result, counters, quarantine
// records, selections, output rows, and the bytes of the trace, the decision
// log, the series document and the snapshot — is the same on one processor
// and on four. On four, the stages must really have been computed ahead.
func TestSerialEqualsPooled(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	adopted := 0
	var reached Metrics // what the serial runs went through, summed
	for seed := int64(1); seed <= seeds; seed++ {
		frng := stats.NewRNG(seed * 977)
		_, branchOps := refMDFScaled(t, stats.NewRNG(seed*31), 8, true)
		fp := &faults.Plan{
			Panics: []faults.PanicSpec{
				{Op: branchOps[frng.Intn(len(branchOps))], Target: faults.TargetTransform, Times: 99},
				{Op: branchOps[frng.Intn(len(branchOps))], Target: faults.TargetTransform, Times: 1},
				{Target: faults.TargetEval, Times: 4},
			},
			Crashes:   []faults.Crash{{Node: 1, AfterStages: 2 + frng.Intn(6)}},
			Slowdowns: []faults.Window{{Node: 2, From: 1, To: 40, Factor: 3}},
		}
		scheds := []struct {
			name string
			make func() scheduler.Policy
			look bool
		}{
			{"bfs", scheduler.BFS, true},
			{"bas", func() scheduler.Policy { return scheduler.BAS(nil) }, true},
			{"bas-sorted", func() scheduler.Policy { return scheduler.BAS(scheduler.SortedHint(false)) }, true},
			{"bas-model", func() scheduler.Policy { return scheduler.BAS(scheduler.ModelHint(true)) }, true},
			{"bas-random", func() scheduler.Policy { return scheduler.BAS(scheduler.RandomHint(seed)) }, false},
		}
		for _, sc := range scheds {
			for _, incremental := range []bool{false, true} {
				for _, plan := range []*faults.Plan{nil, fp} {
					name := fmt.Sprintf("seed=%d %s incremental=%v faults=%v", seed, sc.name, incremental, plan != nil)
					observe := func() observed {
						// A graph per run: sources and operators are fresh, as for
						// two jobs of one process.
						g, _ := refMDFScaled(t, stats.NewRNG(seed*31), 8, true)
						cfg := cluster.DefaultConfig()
						cfg.Workers = 4
						cfg.MemPerWorker = 160 << 20 // holds a few partitions: hits, evictions, and ID tie-breaks among the victims
						return observeRun(t, g, Options{
							Cluster: cluster.MustNew(cfg), Policy: memorymgr.AMM,
							Scheduler: sc.make(), Incremental: incremental, Faults: plan,
						})
					}
					var serial, pooled observed
					withProcs(1, func() { serial = observe() })
					withProcs(4, func() { pooled = observe() })
					if serial.adopted != 0 {
						t.Fatalf("%s: %d stages computed ahead on one processor", name, serial.adopted)
					}
					if !sc.look && pooled.adopted != 0 {
						t.Fatalf("%s: %d stages computed ahead of a policy that cannot look ahead", name, pooled.adopted)
					}
					if d := serial.diff(pooled); d != "" {
						t.Fatalf("%s: one processor vs four: %s", name, d)
					}
					if serial.err != "" {
						t.Fatalf("%s: %s", name, serial.err)
					}
					// (c) Within a run dataset IDs rise in registration order,
					// whoever made the dataset.
					for i := 1; i < len(pooled.ids); i++ {
						if pooled.ids[i] <= pooled.ids[i-1] {
							t.Fatalf("%s: dataset registered %d-th has ID %d, the one before it %d",
								name, i, pooled.ids[i], pooled.ids[i-1])
						}
					}
					adopted += pooled.adopted
					m := serial.metrics
					reached.Mem.Evictions += m.Mem.Evictions
					reached.Mem.Hits += m.Mem.Hits
					reached.BranchesQuarantined += m.BranchesQuarantined
					reached.Retries += m.Retries
					reached.StagesPruned += m.StagesPruned
					reached.NodeCrashes += m.NodeCrashes
				}
			}
		}
	}
	t.Logf("%d stages adopted from a result computed ahead of their pick", adopted)
	if adopted < 100 {
		t.Errorf("only %d stages were computed ahead over the whole test: the pool was hardly reached", adopted)
	}
	if m := reached; m.Mem.Evictions == 0 || m.Mem.Hits == 0 || m.BranchesQuarantined == 0 || m.Retries == 0 || m.StagesPruned == 0 || m.NodeCrashes == 0 {
		t.Errorf("runs too tame for an oracle: %+v", m)
	}
	if n := aheadTokens.Load(); n != 0 {
		t.Errorf("%d tokens still taken", n)
	}
}

// TestSerialEqualsPooledPruning covers the path the random MDFs reach least:
// a first-k selection under a sorted hint and a monotone evaluator, which
// prunes branches other goroutines may be in the middle of.
func TestSerialEqualsPooledPruning(t *testing.T) {
	build := func() *graph.Graph {
		rows := intRowsRef(8192)
		b := mdf.NewBuilder()
		src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
			return dataset.FromRows("in", rows, 4, 1<<16)
		}), 0.001)
		var specs []mdf.BranchSpec
		for i := 0; i < 12; i++ {
			specs = append(specs, mdf.BranchSpec{Label: fmt.Sprintf("b%d", i), Hint: float64((i * 5) % 12)})
		}
		eval := mdf.SizeEvaluator()
		eval.Monotone = true
		src.Explore("x", specs, mdf.NewChooser(eval, mdf.KThreshold(2, 3000, false)),
			func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
				keep := 600 * int(spec.Hint+1)
				head := start.Then(spec.Label+"-f", mdf.FilterRows("f", func(r dataset.Row) bool { return r.(int) < keep }), 0.001)
				return head.ThenWide(spec.Label+"-g", mdf.MapRows("g", 1, func(r dataset.Row) dataset.Row { return r.(int) + 1 }), 0.001)
			}).Then("sink", mdf.Identity("out"), 0.001)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	adopted := 0
	for _, incremental := range []bool{false, true} {
		observe := func() observed {
			cfg := cluster.DefaultConfig()
			cfg.Workers = 4
			return observeRun(t, build(), Options{
				Cluster: cluster.MustNew(cfg), Policy: memorymgr.AMM,
				Scheduler: scheduler.BAS(scheduler.SortedHint(false)), Incremental: incremental,
			})
		}
		var serial, pooled observed
		withProcs(1, func() { serial = observe() })
		withProcs(4, func() { pooled = observe() })
		if d := serial.diff(pooled); d != "" {
			t.Fatalf("incremental=%v: one processor vs four: %s", incremental, d)
		}
		if incremental && serial.metrics.StagesPruned == 0 {
			t.Errorf("nothing was pruned")
		}
		adopted += pooled.adopted
	}
	if adopted == 0 {
		t.Errorf("no stage was computed ahead")
	}
}

// panicMDF is src -> explore over four filters -> max -> sink, 4096 rows in,
// so every branch passes the gate. Branch 1's operator panics for real, every
// time; calls counts its invocations. With rendezvous set, branch 0's
// operator — the first stage picked, computed by the step goroutine — does
// not return before branch 1's has been called, which can then only have
// happened on another goroutine.
func panicMDF(t *testing.T, calls *atomic.Int32, rendezvous bool) *graph.Graph {
	rows := intRowsRef(4096)
	called := make(chan struct{})
	var once sync.Once
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("in", rows, 4, 1<<16)
	}), 0.001)
	src.Explore("x", mdf.Branches("b0", "b1", "b2", "b3"), mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			label := spec.Label
			keep := mdf.FilterRows("f", func(r dataset.Row) bool { return r.(int)%4 != 0 })
			return start.Then(label+"-f", func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
				switch label {
				case "b0":
					if rendezvous {
						select {
						case <-called:
						case <-time.After(10 * time.Second):
							t.Error("branch 1 was never computed ahead of its pick")
						}
					}
				case "b1":
					calls.Add(1)
					once.Do(func() { close(called) })
					panic("boom")
				}
				return keep(ins)
			}, 0.001)
		}).Then("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGenuinePanicOnPoolGoroutine: an operator that really panics, on a
// goroutine other than the step goroutine, costs the same retries and the
// same backoff and leaves the same quarantine record as when the step
// goroutine calls it. The panic is captured where it is raised and surfaces
// as the failure of attempt 1; the retries call the operator again.
func TestGenuinePanicOnPoolGoroutine(t *testing.T) {
	observe := func(rendezvous bool) (observed, int32) {
		var calls atomic.Int32
		cfg := cluster.DefaultConfig()
		cfg.Workers = 4
		o := observeRun(t, panicMDF(t, &calls, rendezvous), Options{
			Cluster: cluster.MustNew(cfg), Scheduler: scheduler.BAS(nil), Incremental: true,
		})
		return o, calls.Load()
	}
	var serial, pooled observed
	var serialCalls, pooledCalls int32
	withProcs(1, func() { serial, serialCalls = observe(false) })
	withProcs(4, func() { pooled, pooledCalls = observe(true) })
	if d := serial.diff(pooled); d != "" {
		t.Fatalf("one processor vs four: %s", d)
	}
	want := faults.DefaultRetry().MaxAttempts
	if int(serialCalls) != want || int(pooledCalls) != want {
		t.Errorf("panicking operator called %d times serially, %d times pooled, want %d both", serialCalls, pooledCalls, want)
	}
	if serial.metrics.Retries != want-1 || len(serial.quarantined) != 1 ||
		!strings.Contains(serial.quarantined[0].Reason, "boom") || serial.quarantined[0].Branch != 1 {
		t.Errorf("retries %d, quarantine records %+v", serial.metrics.Retries, serial.quarantined)
	}
}

// settledGoroutines waits for the goroutine count to come back to base: a
// goroutine that has signalled its WaitGroup may take a moment to be gone.
func settledGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineOutlivesTheRun: however a run ends — finished, failed by an
// operator, cancelled — when Step returns false its goroutines have exited
// and its tokens are back; the goroutines of a run that is abandoned instead
// exit on their own.
func TestNoGoroutineOutlivesTheRun(t *testing.T) {
	// Eight slow branches of one stage each; with fail set the fourth returns
	// an error, which fails the run while others are being computed ahead.
	build := func(fail bool) *graph.Plan {
		rows := intRowsRef(2048)
		b := mdf.NewBuilder()
		src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
			return dataset.FromRows("in", rows, 4, 1<<16)
		}), 0.001)
		var specs []mdf.BranchSpec
		for i := 0; i < 8; i++ {
			specs = append(specs, mdf.BranchSpec{Label: fmt.Sprintf("b%d", i), Hint: float64(i)})
		}
		src.Explore("x", specs, mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
			func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
				bad := fail && spec.Label == "b3"
				return start.Then(spec.Label+"-f", func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
					time.Sleep(2 * time.Millisecond)
					if bad {
						return nil, errors.New("broken operator")
					}
					return ins[0].Alias("f"), nil
				}, 0.001)
			}).Then("sink", mdf.Identity("out"), 0.001)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := graph.BuildPlan(g)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	newRun := func(plan *graph.Plan, ctx context.Context) *Run {
		cfg := cluster.DefaultConfig()
		cfg.Workers = 4
		r, err := NewRun(plan, Options{Cluster: cluster.MustNew(cfg), Scheduler: scheduler.BAS(nil), Context: ctx}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ended := func(name string, r *Run, base int) {
		t.Helper()
		if n := aheadTokens.Load(); n != 0 {
			t.Errorf("%s: %d tokens still taken when Step returned false", name, n)
		}
		if r.ahead != nil {
			t.Errorf("%s: the run still holds its compute-ahead state", name)
		}
		settledGoroutines(t, base)
	}
	withProcs(4, func() {
		base := runtime.NumGoroutine()

		r := newRun(build(false), nil)
		if _, err := r.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		if r.adoptedAhead == 0 {
			t.Error("finished run computed nothing ahead")
		}
		ended("finished", r, base)

		r = newRun(build(true), nil)
		if _, err := r.RunToCompletion(); err == nil || !strings.Contains(err.Error(), "broken operator") {
			t.Fatalf("failing run returned %v", err)
		}
		ended("failed", r, base)

		ctx, cancel := context.WithCancel(context.Background())
		r = newRun(build(false), ctx)
		for i := 0; i < 4; i++ { // src, explore, two branches: others are in flight
			if !r.Step() {
				t.Fatalf("run ended after %d steps: %v", i, r.Err())
			}
		}
		cancel()
		if r.Step() || !errors.Is(r.Err(), context.Canceled) {
			t.Fatalf("cancelled run: %v", r.Err())
		}
		ended("cancelled", r, base)

		// A run its caller walks away from is joined by nobody: its goroutines
		// compute what the last dispatch queued, find the queue empty and hand
		// their tokens back.
		r = newRun(build(false), nil)
		for i := 0; i < 4; i++ {
			if !r.Step() {
				t.Fatalf("run ended after %d steps: %v", i, r.Err())
			}
		}
		for deadline := time.Now().Add(5 * time.Second); aheadTokens.Load() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("abandoned: %d tokens still taken", aheadTokens.Load())
			}
		}
		settledGoroutines(t, base)
	})
}

// TestOperatorReturningItsInput is the regression test of a bug older than
// the pool: an operator that returns its input dataset itself made the stage
// store the output's partitions under the input's identity and then discard
// them with the input, whose last consumer the stage was; the next stage
// read partitions no allocator knew, and the reads went uncharged. Written
// with Alias the job was always right; both spellings now are, identically.
func TestOperatorReturningItsInput(t *testing.T) {
	run := func(pass func(in *dataset.Dataset) *dataset.Dataset) *Result {
		b := mdf.NewBuilder()
		src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
			d := dataset.FromRows("in", intRowsRef(64), 4, 0)
			d.SetVirtualBytes(4 << 30)
			return d
		}), 0.001)
		through := src.ThenWide("through", mdf.WholeDataset("through", func(in *dataset.Dataset) (*dataset.Dataset, error) {
			return pass(in), nil
		}), 0.001)
		mapped := through.ThenWide("map", mdf.MapRows("map", 1, func(r dataset.Row) dataset.Row { return r }), 0.001)
		mapped.ThenWide("sink", mdf.Identity("out"), 0.001)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.DefaultConfig()
		cfg.Workers = 4
		res, err := Execute(g, Options{Cluster: cluster.MustNew(cfg), Policy: memorymgr.AMM})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aliased := run(func(in *dataset.Dataset) *dataset.Dataset { return in.Alias("through") })
	itself := run(func(in *dataset.Dataset) *dataset.Dataset { return in })
	if itself.End != aliased.End {
		t.Errorf("virtual end %v returning the input itself, %v returning an alias of it", itself.End, aliased.End)
	}
	if itself.Metrics.Mem != aliased.Metrics.Mem {
		t.Errorf("memory metrics\n %+v returning the input itself\n %+v returning an alias", itself.Metrics.Mem, aliased.Metrics.Mem)
	}
	if hits := itself.Metrics.Mem.Hits; hits != 12 {
		t.Errorf("%d memory hits, want 12: three stages reading four partitions each", hits)
	}
}

func intRowsRef(n int) []dataset.Row {
	rows := make([]dataset.Row, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}
