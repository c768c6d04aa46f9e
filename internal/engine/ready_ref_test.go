package engine

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata from the current engine")

// refMDF generates a random nested MDF that exercises every way a stage can
// settle: 1-3 consecutive scopes of 2-6 branches with 1-3 chained filters,
// up to two further levels nested inside random branches, and per scope a
// chooser drawn from an associative exhaustive one (max, min), a
// multi-selection one (top-2, which concatenates), a non-associative one
// (mode, which defeats incremental evaluation) and a non-exhaustive one
// (first-k above a size threshold, which prunes). It also returns the names
// of the operators that sit on a branch, for fault plans to aim at.
func refMDF(t *testing.T, rng *stats.RNG) (*graph.Graph, []string) {
	return refMDFScaled(t, rng, 1, false)
}

// refMDFScaled is refMDF with the input repeated scale times over, so that
// every dataset holds scale times the rows, the size thresholds of the
// first-k choosers scaled with it; with fixed set, about half the branch
// operators also carry a FixedCost. At scale 8 some stages' inputs hold more
// rows than the compute-ahead gate asks for and some fewer. The draws from
// rng do not depend on either.
func refMDFScaled(t *testing.T, rng *stats.RNG, scale int, fixed bool) (*graph.Graph, []string) {
	t.Helper()
	b := mdf.NewBuilder()
	rows := make([]dataset.Row, 512*scale)
	for i := range rows {
		rows[i] = i % 512
	}
	node := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("in", rows, 4, 1<<18)
	}), 0.001)

	var branchOps []string
	var addScope func(n *mdf.Node, depth int, id string) *mdf.Node
	addScope = func(n *mdf.Node, depth int, id string) *mdf.Node {
		branches := rng.Intn(5) + 2
		specs := make([]mdf.BranchSpec, branches)
		for i := range specs {
			// Hints deliberately disagree with definition order, so the
			// sorted hint reorders branch heads.
			specs[i] = mdf.BranchSpec{Label: fmt.Sprintf("%s-b%d", id, i), Hint: float64((i*7 + 3) % branches)}
		}
		nested := make([]bool, branches)
		if depth < 2 {
			for i := range nested {
				nested[i] = rng.Float64() < 0.3
			}
		}
		chainLens := make([]int, branches)
		for i := range chainLens {
			chainLens[i] = rng.Intn(3) + 1
		}
		var sel mdf.Selector
		switch rng.Intn(8) {
		case 0:
			sel = mdf.Max()
		case 1:
			sel = mdf.Min()
		case 2:
			sel = mdf.TopK(2)
		case 3:
			sel = mdf.Mode()
		default:
			sel = mdf.KThreshold(rng.Intn(2)+1, float64((80+rng.Intn(150))*scale), false)
		}
		bi := -1
		return n.Explore("explore-"+id, specs, mdf.NewChooser(mdf.SizeEvaluator(), sel),
			func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
				bi++
				bi := bi
				cur := start
				for c := 0; c < chainLens[bi]; c++ {
					keep := 64 + (bi*37+c*11+depth*53)%400
					name := fmt.Sprintf("%s-f%d", spec.Label, c)
					branchOps = append(branchOps, name)
					step := cur.Then
					if c > 0 && (bi+c)%3 == 0 {
						step = cur.ThenWide // a stage boundary inside the branch
					}
					cur = step(name, mdf.FilterRows("f", func(r dataset.Row) bool {
						return r.(int) < keep
					}), 0.001)
					if fixed && (bi+c+depth)%2 == 0 {
						cur.Op().FixedCost = 0.5
					}
				}
				if nested[bi] {
					cur = addScope(cur, depth+1, fmt.Sprintf("%sn%d", id, bi))
					cur = cur.Then(spec.Label+"-tail", mdf.Identity("tail"), 0.001)
				}
				return cur
			})
	}
	for s, scopes := 0, rng.Intn(3)+1; s < scopes; s++ {
		node = addScope(node, 0, fmt.Sprintf("s%d", s))
		node = node.Then(fmt.Sprintf("trunk%d", s), mdf.Identity("trunk"), 0.001)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("random MDF invalid: %v", err)
	}
	return g, branchOps
}

// refReady recomputes the ready set from scratch by the rule the engine
// maintained with a full scan before it counted: a stage is ready when it is
// unsettled and every predecessor is executed or skipped. A choose among
// them whose predecessors were all skipped (and none quarantined) should
// have been skipped at the refresh, in ID order, so finding one is reported
// as an error.
func refReady(r *Run) (ids []int, err error) {
	for _, st := range r.plan.Stages {
		if r.executed[st.ID] || r.skipped[st.ID] {
			continue
		}
		settled, allSkipped := true, true
		for _, pre := range r.plan.Pre(st) {
			if !r.executed[pre.ID] && !r.skipped[pre.ID] {
				settled = false
			}
			if !r.skipped[pre.ID] {
				allSkipped = false
			}
		}
		if !settled {
			continue
		}
		if st.IsChoose() && allSkipped && !r.hasQuarantined(st) {
			err = fmt.Errorf("choose %s has only pruned branches and was left unsettled", st)
		}
		ids = append(ids, st.ID)
	}
	return ids, err
}

// readyIDs reads the engine's own ready list.
func readyIDs(r *Run) []int {
	ids := make([]int, len(r.ready))
	for i, st := range r.ready {
		ids[i] = st.ID
	}
	return ids
}

// recordingPolicy notes what the engine hands to Pick and what comes back.
type recordingPolicy struct {
	scheduler.Policy
	t     *testing.T
	picks []int
	ready []string
}

func (p *recordingPolicy) Pick(ready []*graph.Stage, last *graph.Stage) *graph.Stage {
	ids := make([]int, len(ready))
	for i, st := range ready {
		ids[i] = st.ID
	}
	if !sort.IntsAreSorted(ids) {
		p.t.Errorf("Pick was handed a ready list that is not sorted by stage ID: %v", ids)
	}
	st := p.Policy.Pick(ready, last)
	p.picks = append(p.picks, st.ID)
	p.ready = append(p.ready, fmt.Sprint(ids))
	return st
}

func (p *recordingPolicy) ObserveScore(chooseOp *graph.Operator, hint, score float64) {
	if sa, ok := p.Policy.(scheduler.ScoreAware); ok {
		sa.ObserveScore(chooseOp, hint, score)
	}
}

func digest(parts ...any) string {
	h := fnv.New64a()
	fmt.Fprint(h, parts...)
	return fmt.Sprintf("%016x", h.Sum64())
}

// refCase is one run of the reference sweep: a random nested MDF under one
// scheduler, hint and incremental setting, with or without a fault plan.
type refCase struct {
	name        string
	g           *graph.Graph
	sched       func() scheduler.Policy
	incremental bool
	faults      *faults.Plan
}

// refCases lists the sweep: eight random MDFs (refMDF), each under BFS and
// BAS with no, a sorted and a random hint, with and without incremental
// evaluation, with and without a fault plan in which one branch operator and
// one evaluator fail past the retry budget (quarantine), one branch operator
// recovers within it, and a node restarts mid-run.
func refCases(t *testing.T) []refCase {
	var cases []refCase
	for seed := int64(1); seed <= 8; seed++ {
		g, branchOps := refMDF(t, stats.NewRNG(seed*31))
		frng := stats.NewRNG(seed * 977)
		plan := &faults.Plan{
			Panics: []faults.PanicSpec{
				{Op: branchOps[frng.Intn(len(branchOps))], Target: faults.TargetTransform, Times: 99},
				{Op: branchOps[frng.Intn(len(branchOps))], Target: faults.TargetTransform, Times: 1},
				{Target: faults.TargetEval, Times: 3},
			},
			Crashes: []faults.Crash{{Node: 1, AfterStages: 2 + frng.Intn(6)}},
		}
		scheds := []struct {
			name string
			make func() scheduler.Policy
		}{
			{"bfs", scheduler.BFS},
			{"bas", func() scheduler.Policy { return scheduler.BAS(nil) }},
			{"bas-sorted", func() scheduler.Policy { return scheduler.BAS(scheduler.SortedHint(false)) }},
			{"bas-random", func() scheduler.Policy { return scheduler.BAS(scheduler.RandomHint(seed)) }},
		}
		for _, sc := range scheds {
			for _, incremental := range []bool{false, true} {
				for _, fp := range []*faults.Plan{nil, plan} {
					cases = append(cases, refCase{
						name: fmt.Sprintf("seed=%d %s incremental=%v faults=%v", seed, sc.name, incremental, fp != nil),
						g:    g, sched: sc.make, incremental: incremental, faults: fp,
					})
				}
			}
		}
	}
	return cases
}

// start plans the case's MDF and prepares its run on four workers under AMM,
// with a policy that records every pick.
func (c refCase) start(t *testing.T) (*Run, *recordingPolicy, *graph.Plan) {
	t.Helper()
	p, err := graph.BuildPlan(c.g)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = 1 << 30
	rec := &recordingPolicy{Policy: c.sched(), t: t}
	r, err := NewRun(p, Options{
		Cluster: cluster.MustNew(cfg), Policy: memorymgr.AMM,
		Scheduler: rec, Incremental: c.incremental, Faults: c.faults,
	}, 0)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return r, rec, p
}

// TestReadySetMatchesReferenceAndGolden runs random nested MDFs under every
// scheduler, hint and incremental setting, with and without a fault plan
// that quarantines branches, and checks two things. After every Step the
// counted ready list equals the from-scratch recomputation (refReady). And
// the whole scheduling trace — the ready list handed to every Pick, the
// stage picked, each stage's settle time, the run's counters — equals
// testdata/picks.golden, which was captured from the scan-and-maps engine
// this one replaced, with its double execution of choose stages (see below)
// fixed by one line; 46 of the 128 traces are also what the unfixed engine
// produced, the other 82 ran at least one choose twice there.
func TestReadySetMatchesReferenceAndGolden(t *testing.T) {
	var out strings.Builder
	for _, c := range refCases(t) {
		name := c.name
		r, rec, p := c.start(t)
		steps := 0
		for alive := true; alive; steps++ {
			alive = r.Step()
			want, err := refReady(r)
			if err != nil {
				t.Fatalf("%s: after step %d: %v", name, steps, err)
			}
			if got := readyIDs(r); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: after step %d (picked T%d): ready list %v, from-scratch reference %v",
					name, steps, rec.picks[len(rec.picks)-1], got, want)
			}
		}
		if r.Err() != nil {
			t.Fatalf("%s: %v", name, r.Err())
		}
		// Every stage settles exactly once. The scan-and-maps engine
		// put a choose back on its ready map when the choose pruned
		// or quarantined branches while it executed (non-incremental
		// first-k selections, evaluator panics) and so ran it twice.
		seen := make(map[int]bool, len(rec.picks))
		for _, id := range rec.picks {
			if seen[id] {
				t.Errorf("%s: stage T%d was picked twice", name, id)
			}
			seen[id] = true
		}
		if m := r.Result().Metrics; m.StagesExecuted+m.StagesPruned != len(p.Stages) {
			t.Errorf("%s: %d stages executed + %d pruned, plan has %d",
				name, m.StagesExecuted, m.StagesPruned, len(p.Stages))
		}
		ends := make([]string, len(p.Stages))
		for i, st := range p.Stages {
			ends[i] = fmt.Sprintf("%v/%v/%v", r.executed[st.ID], r.skipped[st.ID], r.stageEnd[st.ID])
		}
		m := r.Result().Metrics
		fmt.Fprintf(&out, "%s: steps=%d exec=%d pruned=%d branches_pruned=%d quarantined=%d end=%v ready=%s settle=%s picks=%v\n",
			name, steps, m.StagesExecuted, m.StagesPruned, m.BranchesPruned, m.BranchesQuarantined,
			r.Now(), digest(rec.ready), digest(ends), rec.picks)
	}
	checkGoldenLines(t, "picks.golden", "scheduling trace", out.String())
}

// checkGoldenLines compares got, line by line, with testdata/<file>, or
// rewrites the file under -update.
func checkGoldenLines(t *testing.T, file, what, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("%s: %d lines, testdata/%s has %d", what, len(gl), file, len(wl))
	}
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs from testdata/%s:\n got  %s\n want %s", what, file, gl[i], wl[i])
		}
	}
}

// TestAllPrunedChooseSkippedAtRefresh drives the one rule the ready set has
// beyond counting: a choose whose branches were all pruned cannot execute,
// so the refresh skips it at the run's current time and carries on, in ID
// order, to whatever that releases — here the enclosing choose, whose other
// branch was pruned too, and through it the sink.
func TestAllPrunedChooseSkippedAtRefresh(t *testing.T) {
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFunc(func() *dataset.Dataset {
		return dataset.FromRows("in", []dataset.Row{1, 2, 3, 4}, 2, 1<<10)
	}), 0.001)
	chooser := func() *mdf.Chooser { return mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()) }
	src.Explore("outer", mdf.Branches("a", "b"), chooser(), func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
		head := start.Then(spec.Label+"-head", mdf.Identity("h"), 0.001)
		if spec.Label == "b" {
			return head
		}
		return head.Explore("inner", mdf.Branches("x", "y"), chooser(), func(s *mdf.Node, sp mdf.BranchSpec) *mdf.Node {
			return s.Then(sp.Label+"-leaf", mdf.Identity("l"), 0.001)
		})
	}).Then("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig()
	cfg.Workers = 2
	r, err := NewRun(p, Options{Cluster: cluster.MustNew(cfg), Scheduler: scheduler.BFS()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	stage := func(op string) *graph.Stage {
		for _, o := range g.Ops() {
			if o.Name == op {
				return p.StageOf(o)
			}
		}
		t.Fatalf("no operator %q", op)
		return nil
	}
	ids := func(ops ...string) string {
		out := make([]int, len(ops))
		for i, op := range ops {
			out[i] = stage(op).ID
		}
		sort.Ints(out)
		return fmt.Sprint(out)
	}
	step := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if !r.Step() {
				t.Fatalf("run ended early: %v", r.Err())
			}
		}
	}
	step(3) // src, outer, a-head
	if got, want := fmt.Sprint(readyIDs(r)), ids("b-head", "inner"); got != want {
		t.Fatalf("ready = %s, want b-head and the inner explore %s", got, want)
	}
	// Pruning a stage that is ready takes it off the list.
	r.skipStage(stage("b-head"), r.Now())
	r.refreshReady()
	if got, want := fmt.Sprint(readyIDs(r)), ids("inner"); got != want {
		t.Fatalf("ready after pruning b-head = %s, want %s", got, want)
	}
	step(1) // inner
	if got, want := fmt.Sprint(readyIDs(r)), ids("x-leaf", "y-leaf"); got != want {
		t.Fatalf("ready = %s, want the two inner leaves %s", got, want)
	}
	now := r.Now()
	r.skipStage(stage("x-leaf"), now)
	r.skipStage(stage("y-leaf"), now)
	for _, name := range []string{"inner/choose", "outer/choose"} {
		if st := stage(name); r.skipped[st.ID] {
			t.Fatalf("%s skipped before the refresh point", name)
		}
	}
	r.refreshReady()
	for _, name := range []string{"inner/choose", "outer/choose"} {
		if st := stage(name); !r.skipped[st.ID] || r.stageEnd[st.ID] != now {
			t.Errorf("%s: skipped=%v at %v, want skipped at the refresh time %v",
				name, r.skipped[st.ID], r.stageEnd[st.ID], now)
		}
	}
	// The sink is an ordinary stage: with its input pruned it is released,
	// not skipped.
	if got, want := fmt.Sprint(readyIDs(r)), ids("sink"); got != want {
		t.Errorf("ready after the refresh = %s, want only the sink %s", got, want)
	}
	if want, err := refReady(r); err != nil || fmt.Sprint(want) != fmt.Sprint(readyIDs(r)) {
		t.Errorf("reference disagrees: %v %v", want, err)
	}
}
