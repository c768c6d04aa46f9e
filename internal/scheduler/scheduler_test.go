package scheduler

import (
	"slices"
	"strconv"
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/stats"
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
	// After executing head 1, its tail and the sibling heads are ready, in
	// ID order as the engine hands them over, head 0 first: BAS must continue
	// depth-first into the tail.
	tail := p.Post(heads[1])[0]
	ready := []*graph.Stage{heads[0], tail, heads[2]}
	if !slices.IsSortedFunc(ready, graph.CompareStageID) {
		t.Fatalf("ready list %v is not in ID order", ready)
	}
	got := pol.Pick(ready, heads[1])
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

func TestDefaultHintDefinitionOrder(t *testing.T) {
	_, heads := buildPlan(t, []float64{9, 5, 7})
	ordered := DefaultHint().Order([]*graph.Stage{heads[2], heads[0], heads[1]})
	if ordered[0] != heads[0] || ordered[2] != heads[2] {
		t.Fatal("default hint must order by stage ID (definition order)")
	}
}

// simulatePicks drives a policy over the plan as the engine would with no
// pruning — the ready list in stage-ID order, every stage settling as it is
// picked — and returns the pick sequence. Before each Pick it calls peek(ready), which may call
// the policy's Lookahead as often as it likes and returns the stage it
// expects to be picked (nil for none): the expectation is checked whenever no
// successor of the last stage is ready, which is when the ready list's order
// decides.
func simulatePicks(t *testing.T, p *graph.Plan, pol Policy, peek func(ready []*graph.Stage) *graph.Stage) []int {
	t.Helper()
	pol.Init(p)
	unsettled := make([]int, len(p.Stages))
	var ready []*graph.Stage
	for _, st := range p.Stages {
		unsettled[st.ID] = len(p.Pre(st))
		if unsettled[st.ID] == 0 {
			ready = append(ready, st)
		}
	}
	var picks []int
	var last *graph.Stage
	for len(ready) > 0 {
		expect := peek(ready)
		if last != nil && pol.Name() == "BAS" {
			for _, post := range p.Post(last) {
				if slices.Contains(ready, post) {
					expect = nil // depth-first: the successor goes first
				}
			}
		}
		next := pol.Pick(ready, last)
		if expect != nil && next != expect {
			t.Errorf("%s picked T%d, Lookahead had T%d first", pol.Name(), next.ID, expect.ID)
		}
		picks = append(picks, next.ID)
		i, ok := slices.BinarySearchFunc(ready, next, graph.CompareStageID)
		if !ok {
			t.Fatalf("%s picked T%d, which is not ready", pol.Name(), next.ID)
		}
		ready = slices.Delete(ready, i, i+1)
		for _, post := range p.Post(next) {
			if unsettled[post.ID]--; unsettled[post.ID] == 0 {
				j, _ := slices.BinarySearchFunc(ready, post, graph.CompareStageID)
				ready = slices.Insert(ready, j, post)
			}
		}
		last = next
	}
	return picks
}

// flippingHint is a caller's own hint that keeps state: it reverses its
// order on every other call, so a speculative ranking would move later picks.
type flippingHint struct{ calls int }

func (*flippingHint) Sorted() bool { return false }
func (h *flippingHint) Order(cands []*graph.Stage) []*graph.Stage {
	h.calls++
	out := slices.Clone(cands)
	if h.calls%2 == 0 {
		slices.Reverse(out)
	}
	return out
}

// TestLookaheadLeavesPicksAlone is the property the engine's compute-ahead
// rests on: a policy that implements Lookahead picks the same sequence
// however often it is asked in between, what it answers is the ready list
// reordered, and when no successor of the last stage is ready its first
// answer is the next pick. A policy that cannot tell — ranking draws from an
// RNG or runs a caller's own hint — says nil, every time.
func TestLookaheadLeavesPicksAlone(t *testing.T) {
	policies := []struct {
		name    string
		make    func() Policy
		cantSay bool // Lookahead answers nil: ranking runs code that may keep state
	}{
		{name: "bfs", make: BFS},
		{name: "bas", make: func() Policy { return BAS(nil) }},
		{name: "bas-sorted-asc", make: func() Policy { return BAS(SortedHint(false)) }},
		{name: "bas-sorted-desc", make: func() Policy { return BAS(SortedHint(true)) }},
		{name: "bas-random", make: func() Policy { return BAS(RandomHint(7)) }, cantSay: true},
		{name: "bas-flipping", make: func() Policy { return BAS(&flippingHint{}) }, cantSay: true},
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		hints := make([]float64, 2+rng.Intn(9))
		for i := range hints {
			hints[i] = float64(rng.Intn(8))
		}
		p, _ := buildPlan(t, hints)
		for _, pc := range policies {
			want := simulatePicks(t, p, pc.make(), func([]*graph.Stage) *graph.Stage { return nil })
			pol := pc.make()
			look, ok := pol.(Lookahead)
			if !ok {
				t.Fatalf("%s does not implement Lookahead", pc.name)
			}
			got := simulatePicks(t, p, pol, func(ready []*graph.Stage) *graph.Stage {
				var first *graph.Stage
				for n := rng.Intn(4); n > 0; n-- {
					order := look.Lookahead(ready)
					if pc.cantSay {
						if order != nil {
							t.Fatalf("seed %d: %s answered Lookahead", seed, pc.name)
						}
						continue
					}
					sorted := slices.Clone(order)
					slices.SortFunc(sorted, graph.CompareStageID)
					if !slices.Equal(sorted, ready) {
						t.Fatalf("seed %d %s: Lookahead did not return the ready list reordered", seed, pc.name)
					}
					first = order[0]
				}
				return first
			})
			if !slices.Equal(got, want) {
				t.Errorf("seed %d %s: picks with Lookahead calls in between %v, without %v", seed, pc.name, got, want)
			}
		}
	}
}

// Parse names every policy the CLI, the facade and the chaos harness offer.
func TestParse(t *testing.T) {
	for name, want := range map[string]struct {
		policy string
		sorted bool
	}{"bas": {"BAS", false}, "bas-sorted": {"BAS", true}, "bas-random": {"BAS", false}, "bfs": {"BFS", false}} {
		p, err := Parse(name, 1)
		if err != nil || p.Name() != want.policy || p.SortedBranches() != want.sorted {
			t.Errorf("Parse(%q) = %v, %v, want %s sorted=%v", name, p, err, want.policy, want.sorted)
		}
	}
	if _, err := Parse("dfs", 1); err == nil {
		t.Error("Parse accepted dfs")
	}
}
