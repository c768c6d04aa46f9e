package graph

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"metadataflow/internal/stats"
)

// edgeModel is the edge store Graph replaced, kept as the reference: a map
// from (from, to) to the dependency kind, beside predecessor and successor
// lists in insertion order.
type edgeModel struct {
	deps      map[[2]int]DepKind
	ins, outs [][]int
}

func (m *edgeModel) connect(from, to int, kind DepKind) bool {
	if _, dup := m.deps[[2]int{from, to}]; dup {
		return false
	}
	m.deps[[2]int{from, to}] = kind
	m.outs[from] = append(m.outs[from], to)
	m.ins[to] = append(m.ins[to], from)
	return true
}

// dot is Graph.DOT as it was written over the map: the operators, then the
// edges sorted by (from, to).
func (m *edgeModel) dot(g *Graph, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n", name)
	for _, op := range g.Ops() {
		attrs := fmt.Sprintf("label=%q", op.Name)
		switch op.Kind {
		case KindExplore:
			attrs += ", shape=triangle, style=filled, fillcolor=lightblue"
		case KindChoose:
			attrs += ", shape=invtriangle, style=filled, fillcolor=lightsalmon"
		case KindSource:
			attrs += ", shape=ellipse"
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", op.ID, attrs)
	}
	edges := make([][2]int, 0, len(m.deps))
	for e := range m.deps {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		style := ""
		if m.deps[e] == Wide {
			style = " [style=dashed]"
		}
		fmt.Fprintf(&b, "  n%d -> n%d%s;\n", e[0], e[1], style)
	}
	b.WriteString("}\n")
	return b.String()
}

func opIDs(ops []*Operator) []int {
	ids := make([]int, 0, len(ops))
	for _, op := range ops {
		ids = append(ids, op.ID)
	}
	return ids
}

// TestEdgesMatchMapModel builds random DAGs edge by edge — a few hubs with
// many successors or predecessors among vertices with one or two, and every
// fourth attempt a repeat of an edge already there — and compares Graph with
// the map model after every Connect: whether the edge was accepted, and Dep of
// the attempted pair in both directions; at the end Dep of every pair, Pre
// and Post of every vertex in insertion order, the degrees, and the DOT bytes.
func TestEdgesMatchMapModel(t *testing.T) {
	kinds := []Kind{KindSource, KindTransform, KindExplore, KindChoose}
	for seed := int64(1); seed <= 300; seed++ {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(40)
		g := New()
		m := &edgeModel{deps: map[[2]int]DepKind{}, ins: make([][]int, n), outs: make([][]int, n)}
		for i := 0; i < n; i++ {
			g.Add(&Operator{Name: fmt.Sprintf("v%d", i), Kind: kinds[rng.Intn(len(kinds))]})
		}
		rank := rng.Perm(n)
		hubs := []int{rng.Intn(n), rng.Intn(n)}
		var made [][2]int
		for e, attempts := 0, rng.Intn(6*n); e < attempts; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if rng.Intn(3) == 0 {
				a = hubs[rng.Intn(len(hubs))]
			}
			if rank[a] > rank[b] {
				a, b = b, a
			}
			if len(made) > 0 && rng.Intn(4) == 0 {
				dup := made[rng.Intn(len(made))]
				a, b = dup[0], dup[1]
			}
			if a == b {
				continue
			}
			kind := DepKind(rng.Intn(2))
			want := m.connect(a, b, kind)
			err := g.Connect(g.Op(a), g.Op(b), kind)
			if (err == nil) != want {
				t.Fatalf("seed %d: Connect(%d, %d) = %v, model accepted = %v", seed, a, b, err, want)
			}
			if want {
				made = append(made, [2]int{a, b})
			}
			for _, pair := range [][2]int{{a, b}, {b, a}} {
				gotKind, gotOK := g.Dep(g.Op(pair[0]), g.Op(pair[1]))
				wantKind, wantOK := m.deps[pair]
				if gotKind != wantKind || gotOK != wantOK {
					t.Fatalf("seed %d: Dep(%d, %d) = (%v, %v), model (%v, %v)", seed, pair[0], pair[1], gotKind, gotOK, wantKind, wantOK)
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				gotKind, gotOK := g.Dep(g.Op(a), g.Op(b))
				wantKind, wantOK := m.deps[[2]int{a, b}]
				if gotKind != wantKind || gotOK != wantOK {
					t.Fatalf("seed %d: Dep(%d, %d) = (%v, %v), model (%v, %v)", seed, a, b, gotKind, gotOK, wantKind, wantOK)
				}
			}
			op := g.Op(a)
			if got := opIDs(g.Pre(op)); fmt.Sprint(got) != fmt.Sprint(m.ins[a]) {
				t.Fatalf("seed %d: Pre(%d) = %v, model %v", seed, a, got, m.ins[a])
			}
			if got := opIDs(g.Post(op)); fmt.Sprint(got) != fmt.Sprint(m.outs[a]) {
				t.Fatalf("seed %d: Post(%d) = %v, model %v", seed, a, got, m.outs[a])
			}
			if g.InDegree(op) != len(m.ins[a]) || g.OutDegree(op) != len(m.outs[a]) {
				t.Fatalf("seed %d: degrees of %d = (%d, %d), model (%d, %d)", seed, a,
					g.InDegree(op), g.OutDegree(op), len(m.ins[a]), len(m.outs[a]))
			}
		}
		if got, want := g.DOT("g"), m.dot(g, "g"); got != want {
			t.Fatalf("seed %d: DOT differs from the model's:\n%s\nmodel:\n%s", seed, got, want)
		}
	}
}
