package graph

import (
	"fmt"
	"strings"
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/stats"
)

func passThrough(ins []*dataset.Dataset) (*dataset.Dataset, error) {
	if len(ins) == 0 {
		return dataset.New("src"), nil
	}
	return ins[0], nil
}

type fakeChooser struct{}

func (fakeChooser) Score(*dataset.Dataset) float64     { return 0 }
func (fakeChooser) NewSession(total int) ChooseSession { return &fakeSession{} }
func (fakeChooser) Associative() bool                  { return true }
func (fakeChooser) NonExhaustive() bool                { return false }
func (fakeChooser) MonotoneEval() bool                 { return false }
func (fakeChooser) ConvexEval() bool                   { return false }

type fakeSession struct{ sel []int }

func (s *fakeSession) Offer(b int, _ float64) ([]int, bool) {
	s.sel = append(s.sel, b)
	return nil, false
}
func (s *fakeSession) Selected() []int { return s.sel }

// buildSimpleMDF builds: src -> pre -> explore -> {b1, b2, b3} -> choose -> post
func buildSimpleMDF(t *testing.T) (*Graph, *Operator, *Operator) {
	t.Helper()
	g := New()
	src := g.Add(&Operator{Name: "src", Kind: KindSource, Transform: passThrough})
	pre := g.Add(&Operator{Name: "pre", Kind: KindTransform, Transform: passThrough})
	exp := g.Add(&Operator{Name: "explore", Kind: KindExplore})
	b1 := g.Add(&Operator{Name: "b1", Kind: KindTransform, Transform: passThrough, Hint: 1})
	b2 := g.Add(&Operator{Name: "b2", Kind: KindTransform, Transform: passThrough, Hint: 2})
	b3 := g.Add(&Operator{Name: "b3", Kind: KindTransform, Transform: passThrough, Hint: 3})
	cho := g.Add(&Operator{Name: "choose", Kind: KindChoose, Chooser: fakeChooser{}})
	post := g.Add(&Operator{Name: "post", Kind: KindTransform, Transform: passThrough})
	g.MustConnect(src, pre, Narrow)
	g.MustConnect(pre, exp, Narrow)
	g.MustConnect(exp, b1, Narrow)
	g.MustConnect(exp, b2, Narrow)
	g.MustConnect(exp, b3, Narrow)
	g.MustConnect(b1, cho, Wide)
	g.MustConnect(b2, cho, Wide)
	g.MustConnect(b3, cho, Wide)
	g.MustConnect(cho, post, Narrow)
	return g, exp, cho
}

func TestValidateSimpleMDF(t *testing.T) {
	g, _, _ := buildSimpleMDF(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDegreeAccessors(t *testing.T) {
	g, exp, cho := buildSimpleMDF(t)
	if got := g.OutDegree(exp); got != 3 {
		t.Errorf("explore out-degree = %d, want 3", got)
	}
	if got := g.InDegree(cho); got != 3 {
		t.Errorf("choose in-degree = %d, want 3", got)
	}
	if got := len(g.Sources()); got != 1 {
		t.Errorf("sources = %d, want 1", got)
	}
	if got := len(g.Sinks()); got != 1 {
		t.Errorf("sinks = %d, want 1", got)
	}
}

func TestTopoSortRespectsEdges(t *testing.T) {
	g, _, _ := buildSimpleMDF(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := map[int]int{}
	for i, op := range order {
		pos[op.ID] = i
	}
	for _, op := range g.Ops() {
		for _, next := range g.Post(op) {
			if pos[op.ID] >= pos[next.ID] {
				t.Errorf("%s not before %s", op.Name, next.Name)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g := New()
	a := g.Add(&Operator{Name: "a", Kind: KindSource, Transform: passThrough})
	b := g.Add(&Operator{Name: "b", Kind: KindTransform, Transform: passThrough})
	g.MustConnect(a, b, Narrow)
	g.MustConnect(b, a, Narrow)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("expected cycle error")
	}
}

// scanTopoSort is the reference for TopoSort: Kahn's algorithm that finds
// the lowest ready ID by scanning from 0 for every vertex. Quadratic, and
// obviously lowest-ID-first.
func scanTopoSort(g *Graph) ([]int, bool) {
	indeg := make([]int, g.NumOps())
	for id := range indeg {
		indeg[id] = g.InDegree(g.Op(id))
	}
	var order []int
	for len(order) < g.NumOps() {
		picked := -1
		for id, d := range indeg {
			if d == 0 {
				picked = id
				break
			}
		}
		if picked == -1 {
			return nil, false
		}
		indeg[picked] = -1
		order = append(order, picked)
		for _, next := range g.Post(g.Op(picked)) {
			indeg[next.ID]--
		}
	}
	return order, true
}

// TestTopoSortMatchesScanReference: on random DAGs TopoSort returns exactly
// the order of the quadratic scan, and on the same graphs closed into a
// cycle both refuse. The first 500 DAGs run their edges along a hidden
// random rank, so that IDs carry no order and TopoSort takes its heap; the
// next 500 run every edge from a lower ID to a higher one, as built graphs
// do, and TopoSort takes its one pass over the edges — until the closing
// edge, which runs backward.
func TestTopoSortMatchesScanReference(t *testing.T) {
	heaps := 0
	for seed := int64(1); seed <= 1000; seed++ {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(60)
		g := New()
		for i := 0; i < n; i++ {
			g.Add(&Operator{Name: fmt.Sprintf("v%d", i), Kind: KindTransform})
		}
		ascending := seed > 500
		rank := rng.Perm(n)
		if ascending {
			for i := range rank {
				rank[i] = i
			}
		}
		edges := rng.Intn(3 * n)
		var last [2]*Operator
		for e := 0; e < edges; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if rank[a] == rank[b] {
				continue
			}
			if rank[a] > rank[b] {
				a, b = b, a
			}
			if g.Connect(g.Op(a), g.Op(b), Narrow) == nil { // duplicates are refused
				last = [2]*Operator{g.Op(a), g.Op(b)}
			}
		}
		if ascending && !g.ascending() {
			t.Fatalf("seed %d: edges along the IDs, yet not ascending", seed)
		}
		if !g.ascending() {
			heaps++
		}
		want, _ := scanTopoSort(g)
		order, err := g.TopoSort()
		if err != nil {
			t.Fatalf("seed %d: TopoSort on a DAG: %v", seed, err)
		}
		got := make([]int, len(order))
		for i, op := range order {
			got[i] = op.ID
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: TopoSort = %v, scan reference = %v", seed, got, want)
		}
		if last[0] == nil {
			continue
		}
		g.MustConnect(last[1], last[0], Narrow)
		if _, ok := scanTopoSort(g); ok {
			t.Fatalf("seed %d: reference missed the cycle", seed)
		}
		if _, err := g.TopoSort(); err == nil {
			t.Fatalf("seed %d: TopoSort missed the cycle", seed)
		}
	}
	if heaps < 400 {
		t.Errorf("only %d of the 500 hidden-rank DAGs took the heap", heaps)
	}
}

func TestValidateRejectsBadDegrees(t *testing.T) {
	g := New()
	src := g.Add(&Operator{Name: "src", Kind: KindSource, Transform: passThrough})
	exp := g.Add(&Operator{Name: "explore", Kind: KindExplore})
	one := g.Add(&Operator{Name: "only", Kind: KindTransform, Transform: passThrough})
	g.MustConnect(src, exp, Narrow)
	g.MustConnect(exp, one, Narrow)
	if err := g.Validate(); err == nil {
		t.Fatal("explore with one branch should fail validation")
	}
}

func TestValidateRejectsUnmatchedExplore(t *testing.T) {
	g := New()
	src := g.Add(&Operator{Name: "src", Kind: KindSource, Transform: passThrough})
	exp := g.Add(&Operator{Name: "explore", Kind: KindExplore})
	a := g.Add(&Operator{Name: "a", Kind: KindTransform, Transform: passThrough})
	b := g.Add(&Operator{Name: "b", Kind: KindTransform, Transform: passThrough})
	g.MustConnect(src, exp, Narrow)
	g.MustConnect(exp, a, Narrow)
	g.MustConnect(exp, b, Narrow)
	if err := g.Validate(); err == nil {
		t.Fatal("explore without matching choose should fail validation")
	}
}

func TestValidateRejectsDisconnected(t *testing.T) {
	g := New()
	g.Add(&Operator{Name: "a", Kind: KindSource, Transform: passThrough})
	g.Add(&Operator{Name: "b", Kind: KindSource, Transform: passThrough})
	if err := g.Validate(); err == nil {
		t.Fatal("disconnected graph should fail validation")
	}
}

func TestMatchScopesSimple(t *testing.T) {
	g, exp, cho := buildSimpleMDF(t)
	scopes, err := g.MatchScopes()
	if err != nil {
		t.Fatalf("MatchScopes: %v", err)
	}
	if len(scopes) != 1 {
		t.Fatalf("scopes = %d, want 1", len(scopes))
	}
	sc := scopes[0]
	if sc.Explore.ID != exp.ID || sc.Choose.ID != cho.ID {
		t.Errorf("scope pairs explore %d with choose %d", sc.Explore.ID, sc.Choose.ID)
	}
	if sc.Depth != 1 {
		t.Errorf("depth = %d, want 1", sc.Depth)
	}
	if len(sc.Branches) != 3 {
		t.Fatalf("branches = %d, want 3", len(sc.Branches))
	}
	for i, br := range sc.Branches {
		if len(br) != 1 {
			t.Errorf("branch %d has %d members, want 1", i, len(br))
		}
	}
}

func TestStagePlanSimple(t *testing.T) {
	g, exp, cho := buildSimpleMDF(t)
	p, err := BuildPlan(g)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	// Expected stages: [src,pre], [explore], [b1], [b2], [b3], [choose], [post].
	if len(p.Stages) != 7 {
		t.Fatalf("stages = %d, want 7: %v", len(p.Stages), p.Stages)
	}
	first := p.Stages[0]
	if len(first.Ops) != 2 {
		t.Errorf("first stage should pipeline src+pre, has %d ops", len(first.Ops))
	}
	expSt := p.StageOf(exp)
	if !expSt.IsExplore() {
		t.Errorf("explore not in singleton stage")
	}
	choSt := p.StageOf(cho)
	if !choSt.IsChoose() {
		t.Errorf("choose not in singleton stage")
	}
	if got := len(p.Pre(choSt)); got != 3 {
		t.Errorf("choose stage pre-set = %d, want 3", got)
	}
	if got := len(p.Post(expSt)); got != 3 {
		t.Errorf("explore stage post-set = %d, want 3", got)
	}
	// Branch refs: the three branch stages belong to scope 0, branches 0..2.
	for i, want := range []int{0, 1, 2} {
		st := p.StageOf(g.Op(exp.ID + 1 + i))
		ref := p.Branch(st)
		if ref == nil || ref.Branch != want {
			t.Errorf("branch ref of b%d = %+v, want branch %d", i+1, ref, want)
		}
	}
}

func TestStageBoundaryOnWideDep(t *testing.T) {
	g := New()
	a := g.Add(&Operator{Name: "a", Kind: KindSource, Transform: passThrough})
	b := g.Add(&Operator{Name: "b", Kind: KindTransform, Transform: passThrough})
	c := g.Add(&Operator{Name: "c", Kind: KindTransform, Transform: passThrough})
	g.MustConnect(a, b, Wide)
	g.MustConnect(b, c, Narrow)
	p, err := BuildPlan(g)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if len(p.Stages) != 2 {
		t.Fatalf("stages = %d, want 2 (wide dep forces boundary)", len(p.Stages))
	}
}

func TestDOTOutput(t *testing.T) {
	g, _, _ := buildSimpleMDF(t)
	dot := g.DOT("kde")
	for _, want := range []string{"digraph", "triangle", "invtriangle", "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestPlanDOT(t *testing.T) {
	g, _, _ := buildSimpleMDF(t)
	p, err := BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	dot := p.DOT("plan")
	for _, want := range []string{"digraph", "cluster_0", "compound=true", "ltail="} {
		if !strings.Contains(dot, want) {
			t.Errorf("plan DOT missing %q", want)
		}
	}
	// One cluster per stage.
	if got := strings.Count(dot, "subgraph cluster_"); got != len(p.Stages) {
		t.Errorf("clusters = %d, want %d", got, len(p.Stages))
	}
}
