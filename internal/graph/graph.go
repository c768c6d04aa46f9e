// Package graph implements the dataflow-graph model of the meta-dataflow
// paper (App. A) extended with the MDF structure of §3: operators connected
// by narrow or wide data dependencies, explore operators that open branches,
// and choose operators that close them.
//
// The package is purely structural plus per-operator executable payloads; the
// scheduling and memory-management policies live in internal/scheduler and
// internal/memorymgr, and the evaluator/selector implementations in
// internal/mdf.
package graph

import (
	"fmt"

	"metadataflow/internal/dataset"
)

// Kind classifies an operator.
type Kind int

const (
	// KindSource produces data from outside the dataflow (|•v| = 0).
	KindSource Kind = iota
	// KindTransform applies its function to its inputs.
	KindTransform
	// KindExplore opens an exploration scope: it forwards its single input
	// dataset to every successor branch (Def. 3.2).
	KindExplore
	// KindChoose closes an exploration scope: it scores every branch result
	// and selects a subset for further processing (Def. 3.3).
	KindChoose
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindTransform:
		return "transform"
	case KindExplore:
		return "explore"
	case KindChoose:
		return "choose"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// DepKind classifies a data dependency (App. A execution model).
type DepKind int

const (
	// Narrow dependencies (map/filter-like) can be pipelined into one stage.
	Narrow DepKind = iota
	// Wide dependencies (group-by-like) force a stage boundary.
	Wide
)

// TransformFunc is the operator function f_v. It receives the output
// datasets of the operator's predecessors in edge order (empty for sources)
// and produces the operator's single output dataset. Implementations must
// set the VirtualBytes of the partitions they produce.
//
// The engine may call the function on another goroutine than the one that
// steps the run, concurrently with the functions of other branches of the
// same job, before the operator's stage is picked, and for a branch that is
// then pruned and whose result is dropped: branches are independent
// (Def. 3.2), so ready ones are computed ahead of their turn while the
// virtual clock keeps their order. A function must therefore not write its
// inputs (datasets, partitions, columns: other branches are reading them),
// must synchronise any state it shares with another function or another
// call of itself (a cache, a counter in a closure), and should be
// deterministic in its inputs: which goroutine runs it, and when, is not. It
// returns a dataset of its own making or one of its inputs as it is; the
// engine gives the latter an identity of its own (Alias). The output's ID
// is the engine's: it is assigned anew when a result computed ahead is
// adopted, so a function neither reads nor keeps dataset IDs.
type TransformFunc func(ins []*dataset.Dataset) (*dataset.Dataset, error)

// Chooser carries the executable semantics of a choose operator: an
// evaluator function φ scoring a branch result, and a selection function ρ
// exposed as an incremental session. Implementations live in internal/mdf;
// the interface is defined here to keep the dependency graph acyclic.
type Chooser interface {
	// Score is the evaluator function φ_v, run on workers. It is called by
	// the goroutine that steps the run, when the choose gets to the branch,
	// while operator functions of other branches may be running on other
	// goroutines (see TransformFunc): it reads d without writing it and
	// synchronises any state it shares with them.
	Score(d *dataset.Dataset) float64
	// NewSession starts an incremental selection over total branches.
	NewSession(total int) ChooseSession
	// Associative reports whether the selection function is associative,
	// enabling incremental discarding of datasets (Tab. 1).
	Associative() bool
	// NonExhaustive reports whether a subset of results may be selected
	// without insight into the remaining results (Tab. 1).
	NonExhaustive() bool
	// MonotoneEval reports that the evaluator is monotone over the choices
	// of the explorable (Tab. 1).
	MonotoneEval() bool
	// ConvexEval reports that the evaluator is convex over the choices of
	// the explorable (Tab. 1).
	ConvexEval() bool
}

// ChooseSession consumes branch scores one at a time, which is how a choose
// executes incrementally under branch-aware scheduling (§3.1, §4.2).
type ChooseSession interface {
	// Offer records the score of branch (by input index). It returns the
	// set of already-offered branch indexes that are now certainly
	// discarded, and done=true when the remaining (unoffered) branches are
	// superfluous and need not execute at all. The list may be the session's
	// own and is read before its next Offer.
	Offer(branch int, score float64) (discard []int, done bool)
	// Selected returns the branch indexes selected so far, in input order.
	// After all branches have been offered (or done was reported) this is
	// the final selection.
	Selected() []int
}

// Operator is a vertex of the dataflow graph.
type Operator struct {
	// ID is the operator's index within its graph.
	ID int
	// Name is a human-readable label.
	Name string
	// Kind classifies the operator.
	Kind Kind
	// Transform is the operator function for sources and transforms.
	Transform TransformFunc
	// Chooser holds the evaluator/selection semantics for choose operators.
	Chooser Chooser
	// CostPerMB is the virtual compute cost, in seconds per accounted
	// megabyte of input, charged by the cluster simulator.
	CostPerMB float64
	// FixedCost is a per-task virtual compute cost in seconds.
	FixedCost float64
	// Hint orders sibling branches for hinted scheduling (§4.2); branch
	// heads carry the explorable's parameter value (or a surrogate).
	Hint float64
	// BranchLabel names the explorable setting of a branch head.
	BranchLabel string
}

// Graph is a connected, acyclic dataflow graph.
type Graph struct {
	ops []*Operator
	// ins and outs hold •v and v• per operator ID, in edge-insertion order.
	// An edge is listed at both its ends, each time with its kind beside it,
	// so whichever list is read tells the kind.
	ins  [][]link
	outs [][]link
	// firsts is the chunk the first link of a list is cut from, its capacity
	// clipped to one: most operators have one predecessor and one successor,
	// and their lists cost no allocation of their own. A second link moves
	// the list into storage of its own.
	firsts []link
}

// link is one end of an edge: the operator at the other end and the kind of
// the dependency.
type link struct {
	op  int
	dep DepKind
}

// linkChunk is the number of first links allocated at a time.
const linkChunk = 128

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Add inserts op into the graph, assigning its ID.
func (g *Graph) Add(op *Operator) *Operator {
	op.ID = len(g.ops)
	g.ops = append(g.ops, op)
	g.ins = append(g.ins, nil)
	g.outs = append(g.outs, nil)
	return op
}

// Connect adds an edge from → to with the given dependency kind.
// Duplicate edges are rejected.
func (g *Graph) Connect(from, to *Operator, kind DepKind) error {
	if from == nil || to == nil {
		return fmt.Errorf("graph: connect with nil operator")
	}
	if from.ID >= len(g.ops) || g.ops[from.ID] != from {
		return fmt.Errorf("graph: operator %q not in graph", from.Name)
	}
	if to.ID >= len(g.ops) || g.ops[to.ID] != to {
		return fmt.Errorf("graph: operator %q not in graph", to.Name)
	}
	if _, dup := g.Dep(from, to); dup {
		return fmt.Errorf("graph: duplicate edge %q -> %q", from.Name, to.Name)
	}
	g.outs[from.ID] = g.appendLink(g.outs[from.ID], link{to.ID, kind})
	g.ins[to.ID] = g.appendLink(g.ins[to.ID], link{from.ID, kind})
	return nil
}

func (g *Graph) appendLink(list []link, l link) []link {
	if list != nil {
		return append(list, l)
	}
	if len(g.firsts) == cap(g.firsts) {
		g.firsts = make([]link, 0, linkChunk)
	}
	g.firsts = append(g.firsts, l)
	n := len(g.firsts)
	return g.firsts[n-1 : n : n]
}

// MustConnect is Connect that panics on error; for use in builders and tests.
func (g *Graph) MustConnect(from, to *Operator, kind DepKind) {
	if err := g.Connect(from, to, kind); err != nil {
		panic(err)
	}
}

// NumOps returns the number of operators.
func (g *Graph) NumOps() int { return len(g.ops) }

// Op returns the operator with the given ID.
func (g *Graph) Op(id int) *Operator { return g.ops[id] }

// Ops returns all operators in insertion order. The caller must not mutate
// the returned slice.
func (g *Graph) Ops() []*Operator { return g.ops }

// Pre returns •v: the predecessors of op in edge-insertion order.
func (g *Graph) Pre(op *Operator) []*Operator { return g.resolve(g.ins[op.ID]) }

// Post returns v•: the successors of op in edge-insertion order.
func (g *Graph) Post(op *Operator) []*Operator { return g.resolve(g.outs[op.ID]) }

// InDegree returns |•v|.
func (g *Graph) InDegree(op *Operator) int { return len(g.ins[op.ID]) }

// OutDegree returns |v•|.
func (g *Graph) OutDegree(op *Operator) int { return len(g.outs[op.ID]) }

// Dep returns the dependency kind of the edge from → to. It scans the
// shorter of from's successors and to's predecessors: one link for an edge
// out of an explore or into a choose, however many branches there are.
func (g *Graph) Dep(from, to *Operator) (DepKind, bool) {
	list, other := g.outs[from.ID], to.ID
	if ins := g.ins[to.ID]; len(ins) < len(list) {
		list, other = ins, from.ID
	}
	for _, l := range list {
		if l.op == other {
			return l.dep, true
		}
	}
	return Narrow, false
}

// Sources returns the operators with no predecessors.
func (g *Graph) Sources() []*Operator {
	var out []*Operator
	for _, op := range g.ops {
		if len(g.ins[op.ID]) == 0 {
			out = append(out, op)
		}
	}
	return out
}

// Sinks returns the operators with no successors.
func (g *Graph) Sinks() []*Operator {
	var out []*Operator
	for _, op := range g.ops {
		if len(g.outs[op.ID]) == 0 {
			out = append(out, op)
		}
	}
	return out
}

// Explores returns the explore operators V< in insertion order.
func (g *Graph) Explores() []*Operator { return g.byKind(KindExplore) }

// Chooses returns the choose operators V> in insertion order.
func (g *Graph) Chooses() []*Operator { return g.byKind(KindChoose) }

func (g *Graph) byKind(k Kind) []*Operator {
	var out []*Operator
	for _, op := range g.ops {
		if op.Kind == k {
			out = append(out, op)
		}
	}
	return out
}

func (g *Graph) resolve(links []link) []*Operator {
	if len(links) == 0 {
		return nil
	}
	out := make([]*Operator, len(links))
	for i, l := range links {
		out[i] = g.ops[l.op]
	}
	return out
}

// TopoSort returns the operators in a topological order, or an error if the
// graph has a cycle. The order is deterministic: among ready operators the
// lowest ID goes first. Stage IDs, and with them every label and artifact,
// follow from this order.
func (g *Graph) TopoSort() ([]*Operator, error) {
	indeg := make([]int, len(g.ops))
	ready := make(idHeap, 0, len(g.ops))
	for id := range g.ops {
		indeg[id] = len(g.ins[id])
		if indeg[id] == 0 {
			ready = append(ready, id) // ascending, so already a heap
		}
	}
	order := make([]*Operator, 0, len(g.ops))
	for len(ready) > 0 {
		picked := ready.pop()
		order = append(order, g.ops[picked])
		for _, next := range g.outs[picked] {
			indeg[next.op]--
			if indeg[next.op] == 0 {
				ready.push(next.op)
			}
		}
	}
	if len(order) < len(g.ops) {
		return nil, fmt.Errorf("graph: cycle detected")
	}
	return order, nil
}

// idHeap is a binary min-heap of operator IDs: Kahn's ready set, from which
// TopoSort takes the lowest ID.
type idHeap []int

func (h *idHeap) push(id int) {
	*h = append(*h, id)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *idHeap) pop() int {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && s[l] < s[least] {
			least = l
		}
		if r := 2*i + 2; r < last && s[r] < s[least] {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}
