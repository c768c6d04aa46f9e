package scheduler

import (
	"strconv"
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
)

func passThrough(ins []*dataset.Dataset) (*dataset.Dataset, error) {
	if len(ins) == 0 {
		return dataset.New("src"), nil
	}
	return ins[0], nil
}

type stubChooser struct{}

func (stubChooser) Score(*dataset.Dataset) float64     { return 0 }
func (stubChooser) NewSession(int) graph.ChooseSession { return stubSession{} }
func (stubChooser) Associative() bool                  { return true }
func (stubChooser) NonExhaustive() bool                { return false }
func (stubChooser) MonotoneEval() bool                 { return false }
func (stubChooser) ConvexEval() bool                   { return false }

type stubSession struct{}

func (stubSession) Offer(int, float64) ([]int, bool) { return nil, false }
func (stubSession) Selected() []int                  { return nil }

// buildPlan constructs src -> explore -> {one branch of 2 chained ops per
// hint} -> choose -> sink and returns the plan plus the branch-head stages.
func buildPlan(t testing.TB, hints []float64) (*graph.Plan, []*graph.Stage) {
	t.Helper()
	g := graph.New()
	src := g.Add(&graph.Operator{Name: "src", Kind: graph.KindSource, Transform: passThrough})
	exp := g.Add(&graph.Operator{Name: "explore", Kind: graph.KindExplore})
	g.MustConnect(src, exp, graph.Narrow)
	cho := g.Add(&graph.Operator{Name: "choose", Kind: graph.KindChoose, Chooser: stubChooser{}})
	var heads []*graph.Operator
	for i, h := range hints {
		a := g.Add(&graph.Operator{Name: "a" + strconv.Itoa(i), Kind: graph.KindTransform, Transform: passThrough, Hint: h})
		b := g.Add(&graph.Operator{Name: "b" + strconv.Itoa(i), Kind: graph.KindTransform, Transform: passThrough, Hint: h})
		g.MustConnect(exp, a, graph.Narrow)
		// Wide dependency splits each branch into two stages.
		g.MustConnect(a, b, graph.Wide)
		g.MustConnect(b, cho, graph.Wide)
		heads = append(heads, a)
	}
	sink := g.Add(&graph.Operator{Name: "sink", Kind: graph.KindTransform, Transform: passThrough})
	g.MustConnect(cho, sink, graph.Narrow)
	p, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	var headStages []*graph.Stage
	for _, h := range heads {
		headStages = append(headStages, p.StageOf(h))
	}
	return p, headStages
}

func TestBFSPicksShallowestFirst(t *testing.T) {
	p, heads := buildPlan(t, []float64{1, 2, 3})
	pol := BFS()
	pol.Init(p)
	// A branch tail (deeper) and a branch head (shallower) both ready: BFS
	// must pick the head.
	tail := p.Post(heads[0])[0]
	got := pol.Pick([]*graph.Stage{tail, heads[1]}, heads[0])
	if got != heads[1] {
		t.Fatalf("BFS picked %v, want shallower %v", got, heads[1])
	}
	if pol.SortedBranches() {
		t.Fatal("BFS does not order branches")
	}
}

func TestBASFollowsBranchDepthFirst(t *testing.T) {
	p, heads := buildPlan(t, []float64{1, 2, 3})
	pol := BAS(nil)
	pol.Init(p)
	// After executing head 0, its tail and the sibling heads are ready:
	// BAS must continue depth-first into the tail.
	tail := p.Post(heads[0])[0]
	got := pol.Pick([]*graph.Stage{heads[1], heads[2], tail}, heads[0])
	if got != tail {
		t.Fatalf("BAS picked %v, want depth-first %v", got, tail)
	}
}

func TestBASFallsBackToOpenSet(t *testing.T) {
	p, heads := buildPlan(t, []float64{1, 2, 3})
	pol := BAS(nil)
	pol.Init(p)
	// No successor of last is ready: falls back to the ready set.
	got := pol.Pick([]*graph.Stage{heads[1], heads[2]}, heads[0])
	if got != heads[1] {
		t.Fatalf("BAS fallback picked %v, want first ready %v", got, heads[1])
	}
}

func TestSortedHintOrdersByHintValue(t *testing.T) {
	p, heads := buildPlan(t, []float64{5, 1, 3})
	pol := BAS(SortedHint(false))
	pol.Init(p)
	got := pol.Pick(heads, nil)
	if got != heads[1] {
		t.Fatalf("sorted hint picked hint=%v, want lowest hint", got.First().Hint)
	}
	desc := BAS(SortedHint(true))
	desc.Init(p)
	if got := desc.Pick(heads, nil); got != heads[0] {
		t.Fatalf("descending hint picked hint=%v, want highest", got.First().Hint)
	}
	if !pol.SortedBranches() {
		t.Fatal("sorted hint must report sorted branches")
	}
}

func TestRandomHintDeterministicPerSeed(t *testing.T) {
	p, heads := buildPlan(t, []float64{1, 2, 3})
	a := BAS(RandomHint(42))
	a.Init(p)
	b := BAS(RandomHint(42))
	b.Init(p)
	if a.Pick(heads, nil) != b.Pick(heads, nil) {
		t.Fatal("same seed must give same order")
	}
	if a.SortedBranches() {
		t.Fatal("random order is not sorted")
	}
}

func TestRandomHintCoversAllOrders(t *testing.T) {
	_, heads := buildPlan(t, []float64{1, 2, 3})
	seen := map[int]bool{}
	for seed := int64(0); seed < 30; seed++ {
		h := RandomHint(seed)
		first := h.Order(heads)[0]
		seen[first.ID] = true
	}
	if len(seen) < 2 {
		t.Fatal("random hint never varied the first branch over 30 seeds")
	}
}

func TestPriorityHint(t *testing.T) {
	p, heads := buildPlan(t, []float64{1, 2, 3})
	// Prioritise the highest hint (a learned model might do this).
	h := PriorityHint("model", func(a, b *graph.Stage) bool {
		return a.First().Hint > b.First().Hint
	}, false)
	pol := BAS(h)
	pol.Init(p)
	if got := pol.Pick(heads, nil); got != heads[2] {
		t.Fatalf("priority hint picked %v, want hint=3", got.First().Hint)
	}
}

func TestDefaultHintDefinitionOrder(t *testing.T) {
	_, heads := buildPlan(t, []float64{9, 5, 7})
	ordered := DefaultHint().Order([]*graph.Stage{heads[2], heads[0], heads[1]})
	if ordered[0] != heads[0] || ordered[2] != heads[2] {
		t.Fatal("default hint must order by stage ID (definition order)")
	}
}
