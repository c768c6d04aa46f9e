package graph

import (
	"fmt"
	"slices"
	"strings"
)

// DOT renders the graph in Graphviz DOT syntax. Explore operators are drawn
// as triangles, choose operators as inverted triangles, and wide dependencies
// as dashed edges. The output is deterministic: edges are listed in (from,
// to) order, each operator's successor list walked in ascending ID.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n", name)
	for _, op := range g.ops {
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
	// Edges in (from, to) order.
	for from, outs := range g.outs {
		outs = slices.Clone(outs)
		slices.SortFunc(outs, func(x, y link) int { return int(x.op - y.op) })
		for _, l := range outs {
			style := ""
			if l.kind() == Wide {
				style = " [style=dashed]"
			}
			fmt.Fprintf(&b, "  n%d -> n%d%s;\n", from, l.op, style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// DOT renders the stage plan in Graphviz DOT syntax: stages as clustered
// subgraphs of their pipelined operators, with stage-level dependencies.
func (p *Plan) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  compound=true;\n  node [shape=box, fontname=\"monospace\"];\n", name)
	for _, st := range p.Stages {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=\"T%d\";\n", st.ID, st.ID)
		if ref := p.Branch(st); ref != nil {
			fmt.Fprintf(&b, "    style=filled;\n    fillcolor=\"#f0f6ff\";\n")
		}
		for _, op := range st.Ops {
			attrs := fmt.Sprintf("label=%q", op.Name)
			switch op.Kind {
			case KindExplore:
				attrs += ", shape=triangle"
			case KindChoose:
				attrs += ", shape=invtriangle"
			case KindSource:
				attrs += ", shape=ellipse"
			}
			fmt.Fprintf(&b, "    n%d [%s];\n", op.ID, attrs)
		}
		b.WriteString("  }\n")
	}
	for _, st := range p.Stages {
		for _, post := range p.Post(st) {
			fmt.Fprintf(&b, "  n%d -> n%d [ltail=cluster_%d, lhead=cluster_%d];\n",
				st.Last().ID, post.First().ID, st.ID, post.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
