package engine

import (
	"fmt"
	"slices"
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

// alg1 is the paper's Alg. 1 (BAS) transcribed literally and quadratically:
// at every step T_cand is recomputed from scratch, and line 5 takes the
// ready successors of the last stage if there are any, else all of T_cand,
// first in the hint's order. It keeps nothing between steps but t_last. The
// prune verdicts it reads — which stages are skipped — are the run's own,
// made by its choose sessions, which mdf/topk_ref_test.go holds to a
// reference of their own.
type alg1 struct {
	plan *graph.Plan
	hint scheduler.Hint
	last *graph.Stage // t_last: the stage picked most recently
}

// cand computes T_cand: the unsettled stages whose predecessors have all
// settled (executed or pruned). A choose whose branches were all pruned,
// none quarantined, cannot execute: it counts as pruned, as refreshReady
// skips it, and the walk goes on to what that releases — in ID order, which
// is a topological order.
func (a *alg1) cand(r *Run) []*graph.Stage {
	pruned := slices.Clone(r.skipped)
	var cand []*graph.Stage
	for _, st := range a.plan.Stages {
		if r.executed[st.ID] || pruned[st.ID] {
			continue
		}
		ready, allPruned := true, true
		for _, pre := range a.plan.Pre(st) {
			ready = ready && (r.executed[pre.ID] || pruned[pre.ID])
			allPruned = allPruned && pruned[pre.ID]
		}
		if !ready {
			continue
		}
		if st.IsChoose() && allPruned && !r.hasQuarantined(st) {
			pruned[st.ID] = true
			continue
		}
		cand = append(cand, st)
	}
	return cand
}

// pick is line 5, hinted_scheduling(T_cand, t_last).
func (a *alg1) pick(cand []*graph.Stage) *graph.Stage {
	var succ []*graph.Stage
	for _, st := range cand {
		if a.last != nil && slices.Contains(a.plan.Post(a.last), st) {
			succ = append(succ, st)
		}
	}
	if len(succ) == 0 {
		succ = cand
	}
	a.last = a.hint.Order(succ)[0]
	return a.last
}

// alg1Checked is a BAS policy that holds every pick to alg1, which has a
// hint of its own: the same kind, and for a random hint the same seed, so
// that called on the same candidate lists it draws the same orders. It
// forwards Lookahead, so a run on several processors computes ahead as it
// would under the bare policy. The first disagreement is kept in err, and
// the engine's pick is returned, so that the run ends normally.
type alg1Checked struct {
	scheduler.Policy
	ref   alg1
	run   *Run
	picks int
	err   error
}

func (c *alg1Checked) Init(p *graph.Plan) {
	c.Policy.Init(p)
	c.ref.plan = p
}

func (c *alg1Checked) Lookahead(ready []*graph.Stage) []*graph.Stage {
	if look, ok := c.Policy.(scheduler.Lookahead); ok {
		return look.Lookahead(ready)
	}
	return nil
}

func (c *alg1Checked) Pick(ready []*graph.Stage, last *graph.Stage) *graph.Stage {
	cand := c.ref.cand(c.run)
	got := c.Policy.Pick(ready, last)
	want := c.ref.pick(cand)
	if c.err == nil {
		switch {
		case !slices.Equal(ready, cand):
			c.err = fmt.Errorf("pick %d: engine's ready list %v, T_cand %v", c.picks, ready, cand)
		case got != want:
			c.err = fmt.Errorf("pick %d (last %v): engine picked %v, Alg. 1 %v out of %v", c.picks, last, got, want, cand)
		}
	}
	c.picks++
	return got
}

// alg1Hints are the hints the reference is run under, each made twice per
// run: once for the engine's BAS and once for the reference.
var alg1Hints = []struct {
	name string
	make func(seed int64) scheduler.Hint
}{
	{"default", func(int64) scheduler.Hint { return scheduler.DefaultHint() }},
	{"sorted", func(int64) scheduler.Hint { return scheduler.SortedHint(false) }},
	{"sorted-desc", func(int64) scheduler.Hint { return scheduler.SortedHint(true) }},
	{"random", func(seed int64) scheduler.Hint { return scheduler.RandomHint(seed) }},
}

// alg1Case is one run held to the reference.
type alg1Case struct {
	name        string
	g           *graph.Graph
	hint        int // into alg1Hints
	seed        int64
	incremental bool
	faults      *faults.Plan
}

// check runs the case to its end under BAS held to alg1 and fails the test
// on the first disagreement; it returns how many stages the run executed
// from a result computed ahead of their pick.
func (c alg1Case) check(t *testing.T) int {
	t.Helper()
	p, err := graph.BuildPlan(c.g)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	cfg.MemPerWorker = 1 << 30
	h := alg1Hints[c.hint]
	pol := &alg1Checked{Policy: scheduler.BAS(h.make(c.seed)), ref: alg1{hint: h.make(c.seed)}}
	r, err := NewRun(p, Options{
		Cluster: cluster.MustNew(cfg), Policy: memorymgr.AMM,
		Scheduler: pol, Incremental: c.incremental, Faults: c.faults,
	}, 0)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	pol.run = r
	if _, err := r.RunToCompletion(); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if pol.err != nil {
		t.Fatalf("%s: %v", c.name, pol.err)
	}
	if pol.picks == 0 {
		t.Fatalf("%s: no pick was checked", c.name)
	}
	return r.adoptedAhead
}

// refFaults is the fault plan of refCases for the MDF of one seed: one
// branch operator and one evaluator fail past the retry budget, one branch
// operator recovers within it, and a node restarts mid-run.
func refFaults(seed int64, branchOps []string) *faults.Plan {
	frng := stats.NewRNG(seed * 977)
	return &faults.Plan{
		Panics: []faults.PanicSpec{
			{Op: branchOps[frng.Intn(len(branchOps))], Target: faults.TargetTransform, Times: 99},
			{Op: branchOps[frng.Intn(len(branchOps))], Target: faults.TargetTransform, Times: 1},
			{Target: faults.TargetEval, Times: 3},
		},
		Crashes: []faults.Crash{{Node: 1, AfterStages: 2 + frng.Intn(6)}},
	}
}

// flatAlg1MDF is a flat explore of width branches, two stages a branch (the
// second behind a wide dependency), closed by an incremental top-4 choose
// when prune is false and otherwise by a first-4 choose above a size
// threshold, which prunes the branches it no longer needs. Branch i keeps
// the rows below a bound that varies with i, so the scores differ; its hint
// repeats values out of definition order, so every hint orders the heads
// differently. Half the heads carry a FixedCost, which is what the
// compute-ahead gate asks of a stage over 64 rows.
func flatAlg1MDF(t *testing.T, width int, prune bool) *graph.Graph {
	t.Helper()
	b := mdf.NewBuilder()
	src := dataset.FromRows("in", intRowsRef(64), 4, 1<<20)
	specs := make([]mdf.BranchSpec, width)
	for i := range specs {
		specs[i] = mdf.BranchSpec{Label: fmt.Sprintf("b%d", i), Hint: float64((i * 37) % 101)}
	}
	sel := mdf.TopK(4)
	if prune {
		sel = mdf.KThreshold(4, 48, false)
	}
	bi := -1
	b.Source("src", mdf.SourceFromDataset(src), 0.001).
		Explore("explore", specs, mdf.NewChooser(mdf.SizeEvaluator(), sel),
			func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
				bi++
				keep := 8 + (bi*29)%57
				head := start.Then(spec.Label+"-head", mdf.FilterRows("f", func(r dataset.Row) bool {
					return r.(int) < keep
				}), 0.001)
				if bi%2 == 0 {
					head.Op().FixedCost = 0.01
				}
				return head.ThenWide(spec.Label+"-tail", mdf.Identity("tail"), 0.001)
			}).
		Then("sink", mdf.Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBASMatchesAlg1 holds the engine and BAS to alg1 at every pick: the
// ready list handed to Pick must be T_cand, and the pick Alg. 1's. Under the
// default, ascending, descending and random hint, on one processor and on
// four, it runs
//   - the eight random nested MDFs of refCases, each incremental or not and
//     with or without its fault plan (128 runs a processor count);
//   - the same MDFs with their inputs scaled eightfold and half the branch
//     operators carrying a FixedCost, where on four processors BAS's
//     Lookahead runs the compute-ahead pool (128 more);
//   - flat explores of 256, 1 024 and 4 096 branches closed by a top-4 and
//     by a pruning first-4 choose (24 more; under -short or the race
//     detector only the 256-branch ones).
func TestBASMatchesAlg1(t *testing.T) {
	var cases []alg1Case
	for seed := int64(1); seed <= 8; seed++ {
		for _, scale := range []int{1, 8} {
			g, branchOps := refMDFScaled(t, stats.NewRNG(seed*31), scale, scale > 1)
			for hint := range alg1Hints {
				for _, incremental := range []bool{false, true} {
					for _, fp := range []*faults.Plan{nil, refFaults(seed, branchOps)} {
						cases = append(cases, alg1Case{
							name: fmt.Sprintf("seed=%d scale=%d %s incremental=%v faults=%v",
								seed, scale, alg1Hints[hint].name, incremental, fp != nil),
							g: g, hint: hint, seed: seed, incremental: incremental, faults: fp,
						})
					}
				}
			}
		}
	}
	widths := []int{256, 1024, 4096}
	if testing.Short() || raceDetector {
		widths = widths[:1] // quadratic: the wider ones take minutes under the detector
	}
	for _, width := range widths {
		for _, prune := range []bool{false, true} {
			g := flatAlg1MDF(t, width, prune)
			for hint := range alg1Hints {
				cases = append(cases, alg1Case{
					name: fmt.Sprintf("flat width=%d prune=%v %s", width, prune, alg1Hints[hint].name),
					g:    g, hint: hint, seed: int64(width), incremental: true,
				})
			}
		}
	}
	adopted := 0
	for _, c := range cases {
		withProcs(1, func() {
			if n := c.check(t); n != 0 {
				t.Fatalf("%s: %d stages computed ahead on one processor", c.name, n)
			}
		})
		withProcs(4, func() { adopted += c.check(t) })
	}
	t.Logf("%d runs, %d stages adopted from a result computed ahead of their pick", 2*len(cases), adopted)
	if adopted == 0 {
		t.Errorf("no stage was computed ahead: the pool was not reached")
	}
}
