package mdf

import (
	"fmt"

	"metadataflow/internal/graph"
)

// Builder constructs MDF graphs fluently, mirroring the EXPLORE/CHOOSE
// syntax of the paper's Scala listings (Figs. 3b, 21–23). Errors are
// deferred and reported by Build.
type Builder struct {
	g   *graph.Graph
	err error
}

// NewBuilder returns an empty MDF builder.
func NewBuilder() *Builder { return &Builder{g: graph.New()} }

// Node is a builder handle to an operator, used to chain further operators.
type Node struct {
	b          *Builder
	op         *graph.Operator
	branchSpec *BranchSpec // set on explore forks: labels the next operator
}

// BranchSpec describes one explorable setting: a human-readable label and a
// numeric hint the scheduler can sort branches by (§4.2).
type BranchSpec struct {
	Label string
	Hint  float64
}

// Branches builds a BranchSpec slice from labels with hints 0..n-1.
func Branches(labels ...string) []BranchSpec {
	out := make([]BranchSpec, len(labels))
	for i, l := range labels {
		out[i] = BranchSpec{Label: l, Hint: float64(i)}
	}
	return out
}

// fail records the first error.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Source adds a source operator (|•v| = 0) producing the job's input.
func (b *Builder) Source(name string, fn graph.TransformFunc, costPerMB float64) *Node {
	op := b.g.Add(&graph.Operator{Name: name, Kind: graph.KindSource, Transform: fn, CostPerMB: costPerMB})
	return &Node{b: b, op: op}
}

// Then appends a transform connected by a narrow dependency.
func (n *Node) Then(name string, fn graph.TransformFunc, costPerMB float64) *Node {
	return n.then(name, fn, costPerMB, graph.Narrow)
}

// ThenWide appends a transform connected by a wide dependency, forcing a
// stage boundary (e.g. a group-by).
func (n *Node) ThenWide(name string, fn graph.TransformFunc, costPerMB float64) *Node {
	return n.then(name, fn, costPerMB, graph.Wide)
}

func (n *Node) then(name string, fn graph.TransformFunc, costPerMB float64, dep graph.DepKind) *Node {
	if n == nil || n.b == nil {
		return n
	}
	op := n.b.g.Add(&graph.Operator{Name: name, Kind: graph.KindTransform, Transform: fn, CostPerMB: costPerMB})
	if n.branchSpec != nil {
		op.BranchLabel = n.branchSpec.Label
		op.Hint = n.branchSpec.Hint
	}
	if err := n.b.g.Connect(n.op, op, dep); err != nil {
		n.b.fail("mdf: %v", err)
	}
	return &Node{b: n.b, op: op}
}

// Explore opens an exploration scope with one branch per spec (Def. 3.2)
// and closes it with a choose applying the given chooser (Def. 3.3). The
// body builds each branch from the provided start node and must return the
// branch's final node. Nested Explore calls inside the body create nested
// scopes. The returned node is the choose operator's output.
func (n *Node) Explore(name string, specs []BranchSpec, chooser *Chooser, body func(start *Node, spec BranchSpec) *Node) *Node {
	if n == nil || n.b == nil {
		return n
	}
	b := n.b
	if len(specs) < 2 {
		b.fail("mdf: explore %q needs at least two branches, got %d", name, len(specs))
		return n
	}
	if chooser == nil {
		b.fail("mdf: explore %q has nil chooser", name)
		return n
	}
	exp := b.g.Add(&graph.Operator{Name: name, Kind: graph.KindExplore})
	if n.branchSpec != nil {
		exp.BranchLabel = n.branchSpec.Label
		exp.Hint = n.branchSpec.Hint
	}
	if err := b.g.Connect(n.op, exp, graph.Narrow); err != nil {
		b.fail("mdf: %v", err)
	}
	ends := make([]*Node, 0, len(specs))
	for i := range specs {
		// The head node reads its spec while body chains from it, and not after.
		start := &Node{b: b, op: exp, branchSpec: &specs[i]}
		end := body(start, specs[i])
		if end == nil || end.op == exp {
			b.fail("mdf: branch %q of explore %q is empty", specs[i].Label, name)
			return n
		}
		ends = append(ends, end)
	}
	choose := b.g.Add(&graph.Operator{
		Name:      name + "/choose",
		Kind:      graph.KindChoose,
		Chooser:   chooser,
		CostPerMB: chooser.Eval.CostPerMB,
	})
	for _, end := range ends {
		if err := b.g.Connect(end.op, choose, graph.Wide); err != nil {
			b.fail("mdf: %v", err)
		}
	}
	return &Node{b: b, op: choose}
}

// Merge appends a transform consuming this node's output together with the
// outputs of the given other nodes (edge order: this node first). The
// transform function receives the inputs in that order. Merges create
// diamond-shaped dataflows, e.g. joining a profile computed on one path with
// the cleaned data of another.
func (n *Node) Merge(name string, fn graph.TransformFunc, costPerMB float64, others ...*Node) *Node {
	if n == nil || n.b == nil {
		return n
	}
	b := n.b
	op := b.g.Add(&graph.Operator{Name: name, Kind: graph.KindTransform, Transform: fn, CostPerMB: costPerMB})
	if n.branchSpec != nil {
		op.BranchLabel = n.branchSpec.Label
		op.Hint = n.branchSpec.Hint
	}
	if err := b.g.Connect(n.op, op, graph.Wide); err != nil {
		b.fail("mdf: %v", err)
	}
	for _, o := range others {
		if o == nil {
			b.fail("mdf: merge %q with nil input", name)
			return &Node{b: b, op: op}
		}
		if err := b.g.Connect(o.op, op, graph.Wide); err != nil {
			b.fail("mdf: %v", err)
		}
	}
	return &Node{b: b, op: op}
}

// Op exposes the underlying operator (for tests and tooling).
func (n *Node) Op() *graph.Operator { return n.op }

// Build validates and returns the constructed graph.
func (b *Builder) Build() (*graph.Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// Graph returns the graph without validation (for tooling that renders
// partial graphs).
func (b *Builder) Graph() *graph.Graph { return b.g }
