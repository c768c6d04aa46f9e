package mdf

import (
	"fmt"
	"slices"
	"strings"

	"metadataflow/internal/graph"
)

// Builder constructs MDF graphs fluently, mirroring the EXPLORE/CHOOSE
// syntax of the paper's Scala listings (Figs. 3b, 21–23). Errors are
// deferred and reported by Build.
//
// The operators and the handles it hands out are cut from chunks of its own,
// so that a branch costs the builder no allocation of its own: what a wide
// job pays before its first stage runs grows with its branches.
type Builder struct {
	g   *graph.Graph
	err error
	// ops and nodes are the chunks the next operator and the next handle are
	// cut from; a full one is left to what points into it and a new one takes
	// its place: of slabChunk entries, or of opsDue or nodesDue when an
	// explore has reserved more (reserve), with what its size class holds
	// beyond that.
	ops              []graph.Operator
	nodes            []Node
	opsDue, nodesDue int
	// handles counts the handles handed out.
	handles int
	// ends is the stack of the last operators of the branches of the explores
	// being built, innermost last.
	ends []*graph.Operator
}

// slabChunk is the number of operators, and of handles, allocated at a time:
// a fixed few dozen, so that a small graph keeps little room unused and a
// large one no chunk of doubled size.
const slabChunk = 32

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

// Setting returns what name spells out between its first '(' and its last
// byte, a ')': the label of the branch that an operator so named heads, as a
// substring of the name, which costs no allocation of its own.
func Setting(name string) string { return name[strings.IndexByte(name, '(')+1 : len(name)-1] }

// BranchNames returns the n names that name(dst, i) appends to dst, i in
// [0, n), as substrings of one string of their summed length: an explore's
// operator names cost one allocation, not one each. name must append the
// same bytes on each of the two calls it gets per i, one to size the string
// and one to fill it.
func BranchNames(n int, name func(dst []byte, i int) []byte) []string {
	var buf [64]byte
	size := 0
	for i := 0; i < n; i++ {
		size += len(name(buf[:0], i))
	}
	var b strings.Builder
	b.Grow(size)
	names := make([]string, n)
	for i := range names {
		start := b.Len()
		b.Write(name(buf[:0], i))
		// What the builder holds is never written again, so the substring
		// stays as it is while later names are appended.
		names[i] = b.String()[start:]
	}
	return names
}

// Branches builds a BranchSpec slice from labels with hints 0..n-1.
func Branches(labels ...string) []BranchSpec {
	out := make([]BranchSpec, len(labels))
	for i, l := range labels {
		out[i] = BranchSpec{Label: l, Hint: float64(i)}
	}
	return out
}

// add inserts op into the graph, cut from the builder's operator chunk.
func (b *Builder) add(op graph.Operator) *graph.Operator {
	if len(b.ops) == cap(b.ops) {
		b.ops = slices.Grow([]graph.Operator(nil), max(slabChunk, b.opsDue))
		b.opsDue = 0
	}
	b.ops = append(b.ops, op)
	return b.g.Add(&b.ops[len(b.ops)-1])
}

// node returns a handle to op, cut from the builder's handle chunk; spec is
// set on the head of an explore's branch.
func (b *Builder) node(op *graph.Operator, spec *BranchSpec) *Node {
	if len(b.nodes) == cap(b.nodes) {
		b.nodes = slices.Grow([]Node(nil), max(slabChunk, b.nodesDue))
		b.nodesDue = 0
	}
	b.handles++
	b.nodes = append(b.nodes, Node{b: b, op: op, branchSpec: spec})
	return &b.nodes[len(b.nodes)-1]
}

// reserve makes room for ops more operators and handles more handles: the
// graph's tables grow once, and the chunk after the current one is cut to
// the size of what the current one has no room for. Reservations nest: one
// for an outer explore's branches covers the inner explores they hold.
func (b *Builder) reserve(ops, handles int) {
	b.g.ReserveOps(ops)
	b.opsDue = max(b.opsDue, ops-(cap(b.ops)-len(b.ops)))
	b.nodesDue = max(b.nodesDue, handles-(cap(b.nodes)-len(b.nodes)))
}

// fail records the first error.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Source adds a source operator (|•v| = 0) producing the job's input.
func (b *Builder) Source(name string, fn graph.TransformFunc, costPerMB float64) *Node {
	return b.node(b.add(graph.Operator{Name: name, Kind: graph.KindSource, Transform: fn, CostPerMB: costPerMB}), nil)
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
	op := n.b.add(n.branched(graph.Operator{Name: name, Kind: graph.KindTransform, Transform: fn, CostPerMB: costPerMB}))
	if err := n.b.g.Connect(n.op, op, dep); err != nil {
		n.b.fail("mdf: %v", err)
	}
	return n.b.node(op, nil)
}

// branched returns op labelled as the head of n's branch, when n is the start
// of one.
func (n *Node) branched(op graph.Operator) graph.Operator {
	if n.branchSpec != nil {
		op.BranchLabel = n.branchSpec.Label
		op.Hint = n.branchSpec.Hint
	}
	return op
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
	exp := b.add(n.branched(graph.Operator{Name: name, Kind: graph.KindExplore}))
	if err := b.g.Connect(n.op, exp, graph.Narrow); err != nil {
		b.fail("mdf: %v", err)
	}
	b.g.Reserve(exp, 0, len(specs))
	lo := len(b.ends)
	b.ends = slices.Grow(b.ends, len(specs))
	defer func() { b.ends = b.ends[:lo] }()
	ops, handles := b.g.NumOps(), b.handles
	for i := range specs {
		// The head node reads its spec while body chains from it, and not after.
		start := b.node(exp, &specs[i])
		end := body(start, specs[i])
		if end == nil || end.op == exp {
			b.fail("mdf: branch %q of explore %q is empty", specs[i].Label, name)
			return n
		}
		b.ends = append(b.ends, end.op)
		if i == 0 {
			// What the first branch added, each other branch is taken to add
			// as well; the choose and its handle come after them.
			rest := len(specs) - 1
			b.reserve(rest*(b.g.NumOps()-ops)+1, rest*(b.handles-handles)+1)
		}
	}
	choose := b.add(graph.Operator{
		Name:      name + "/choose",
		Kind:      graph.KindChoose,
		Chooser:   chooser,
		CostPerMB: chooser.Eval.CostPerMB,
	})
	b.g.Reserve(choose, len(specs), 0)
	for _, end := range b.ends[lo:] {
		if err := b.g.Connect(end, choose, graph.Wide); err != nil {
			b.fail("mdf: %v", err)
		}
	}
	return b.node(choose, nil)
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
	op := b.add(n.branched(graph.Operator{Name: name, Kind: graph.KindTransform, Transform: fn, CostPerMB: costPerMB}))
	if err := b.g.Connect(n.op, op, graph.Wide); err != nil {
		b.fail("mdf: %v", err)
	}
	for _, o := range others {
		if o == nil {
			b.fail("mdf: merge %q with nil input", name)
			return b.node(op, nil)
		}
		if err := b.g.Connect(o.op, op, graph.Wide); err != nil {
			b.fail("mdf: %v", err)
		}
	}
	return b.node(op, nil)
}

// Op exposes the underlying operator (for tests and tooling).
func (n *Node) Op() *graph.Operator { return n.op }

// Build validates and returns the constructed graph. The graph keeps what
// validation computed, so graph.BuildPlan does not validate it again.
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
