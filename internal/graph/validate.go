package graph

import (
	"fmt"
	"slices"
)

// Validate checks that the graph is a well-formed MDF per Def. 3.1 and
// App. A: non-empty, weakly connected, acyclic, with degree constraints on
// explore (|•v| = 1, |v•| > 1) and choose (|•v| > 1, |v•| = 1) operators,
// executable payloads on every operator, and properly nested explore/choose
// scopes so that every explore has a matching choose.
//
// A graph that passes keeps the topological order and the scopes the checks
// computed, until the next Add or Connect, and BuildPlan derives its stages
// from them without validating again. Validate therefore writes the graph, as
// Add and Connect do; BuildPlan only reads it.
func (g *Graph) Validate() error {
	order, scopes, err := g.validate()
	if err != nil {
		return err
	}
	g.order, g.scopes = order, scopes
	return nil
}

// validate is the one pass behind Validate and BuildPlan: it runs every
// check in the order Validate documents and hands back what the checks had
// to compute anyway, the topological order and the scopes.
func (g *Graph) validate() ([]*Operator, []*Scope, error) {
	if len(g.ops) == 0 {
		return nil, nil, fmt.Errorf("graph: empty")
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, nil, err
	}
	if err := g.checkConnected(); err != nil {
		return nil, nil, err
	}
	for _, op := range g.ops {
		if err := g.checkOp(op); err != nil {
			return nil, nil, err
		}
	}
	scopes, err := g.matchScopes(order)
	if err != nil {
		return nil, nil, err
	}
	return order, scopes, nil
}

func (g *Graph) checkConnected() error {
	// Weak connectivity via union-find over edges.
	parent := make([]int, len(g.ops))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for from, outs := range g.outs {
		for _, to := range outs {
			a, b := find(from), find(int(to.op))
			if a != b {
				parent[a] = b
			}
		}
	}
	root := find(0)
	for i := range g.ops {
		if find(i) != root {
			return fmt.Errorf("graph: not connected (operator %q unreachable)", g.ops[i].Name)
		}
	}
	return nil
}

func (g *Graph) checkOp(op *Operator) error {
	in, out := g.InDegree(op), g.OutDegree(op)
	switch op.Kind {
	case KindSource:
		if in != 0 {
			return fmt.Errorf("graph: source %q has %d predecessors", op.Name, in)
		}
		if op.Transform == nil {
			return fmt.Errorf("graph: source %q has no function", op.Name)
		}
	case KindTransform:
		if in == 0 {
			return fmt.Errorf("graph: transform %q has no predecessors", op.Name)
		}
		if op.Transform == nil {
			return fmt.Errorf("graph: transform %q has no function", op.Name)
		}
	case KindExplore:
		if in != 1 {
			return fmt.Errorf("graph: explore %q must have exactly one predecessor, has %d", op.Name, in)
		}
		if out <= 1 {
			return fmt.Errorf("graph: explore %q must have more than one successor, has %d", op.Name, out)
		}
	case KindChoose:
		if in <= 1 {
			return fmt.Errorf("graph: choose %q must have more than one predecessor, has %d", op.Name, in)
		}
		if out > 1 {
			return fmt.Errorf("graph: choose %q must have at most one successor, has %d", op.Name, out)
		}
		if op.Chooser == nil {
			return fmt.Errorf("graph: choose %q has no chooser", op.Name)
		}
	default:
		return fmt.Errorf("graph: operator %q has unknown kind %d", op.Name, int(op.Kind))
	}
	return nil
}

// Scope describes one exploration scope: an explore operator, its matching
// choose, and the branches between them. Branch i is the subgraph reachable
// from the i-th successor of Explore without passing through Choose.
type Scope struct {
	Explore *Operator
	Choose  *Operator
	// Branches holds, per branch, the operator IDs belonging to the branch
	// in ascending order (excluding the explore and choose themselves).
	Branches [][]int
	// Depth is the nesting depth (outermost scope has depth 1).
	Depth int

	// index is the scope's position in the list MatchScopes returned, which
	// is Plan.Scopes.
	index int
}

// MatchScopes pairs every explore with its matching choose by balanced
// traversal and returns the scopes in topological order of their explores.
// It errors on unbalanced or interleaved scopes.
func (g *Graph) MatchScopes() ([]*Scope, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	return g.matchScopes(order)
}

// matchScopes is MatchScopes over an already computed topological order.
func (g *Graph) matchScopes(order []*Operator) ([]*Scope, error) {
	// The stack of explores open at an operator is named by its top alone:
	// below the top sits the stack the top explore itself executes under, so
	// two stacks are equal exactly when their tops are. open[v] is that top
	// (-1 outside every scope), propagated along edges; all predecessors of
	// a vertex must agree.
	const none = -1
	open := make([]int, len(g.ops))
	for _, op := range order {
		top := none
		for i, in := range g.ins[op.ID] {
			pid := int(in.op)
			p := g.ops[pid]
			eff := open[pid]
			switch p.Kind {
			case KindExplore:
				eff = pid // entering the scope p opens
			case KindChoose:
				if eff == none {
					return nil, fmt.Errorf("graph: choose %q closes no open explore", p.Name)
				}
				eff = open[eff] // leaving a choose pops its explore
			}
			if i == 0 {
				top = eff
			} else if top != eff {
				return nil, fmt.Errorf("graph: operator %q has predecessors in different scopes", op.Name)
			}
		}
		open[op.ID] = top
	}
	// A choose's matching explore is the top of its own stack. The scopes
	// are cut from one slab, one per explore.
	scopeOf := make([]*Scope, len(g.ops)) // by explore ID
	explores := 0
	for _, op := range g.ops {
		if op.Kind == KindExplore {
			explores++
		}
	}
	var slab []Scope
	var out []*Scope
	if explores > 0 {
		slab, out = make([]Scope, explores), make([]*Scope, 0, explores)
	}
	for _, op := range order {
		switch op.Kind {
		case KindExplore:
			depth := 1
			if outer := open[op.ID]; outer != none {
				depth = scopeOf[outer].Depth + 1
			}
			sc := &slab[len(out)]
			*sc = Scope{Explore: op, Depth: depth, index: len(out)}
			scopeOf[op.ID] = sc
			out = append(out, sc)
		case KindChoose:
			if open[op.ID] == none {
				return nil, fmt.Errorf("graph: choose %q has no matching explore", op.Name)
			}
			sc := scopeOf[open[op.ID]]
			if sc.Choose != nil {
				return nil, fmt.Errorf("graph: explore %q matched by two chooses (%q, %q)",
					sc.Explore.Name, sc.Choose.Name, op.Name)
			}
			sc.Choose = op
		}
	}
	// stamp[v] names the last branch walk that reached v; one array serves
	// every branch of every scope. So does one buffer for the members: an
	// operator is a member of one branch of every scope it executes in, which
	// bounds its size (a choose is counted for the scope it closes as well),
	// and every branch is a slice of it.
	stamp := make([]int, len(g.ops))
	walk := 0
	var stack []int
	branches, members := 0, 0
	for _, sc := range out {
		if sc.Choose == nil {
			return nil, fmt.Errorf("graph: explore %q has no matching choose", sc.Explore.Name)
		}
		branches += len(g.outs[sc.Explore.ID])
	}
	for _, top := range open {
		if top != none {
			members += scopeOf[top].Depth
		}
	}
	buf := make([]int, 0, members)
	lists := make([][]int, branches)
	for _, sc := range out {
		heads := g.outs[sc.Explore.ID]
		sc.Branches, lists = lists[:len(heads):len(heads)], lists[len(heads):]
		for i, head := range heads {
			walk++
			lo := len(buf)
			stack = append(stack[:0], int(head.op))
			for len(stack) > 0 {
				id := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if stamp[id] == walk || id == sc.Choose.ID {
					continue
				}
				stamp[id] = walk
				buf = append(buf, id)
				for _, next := range g.outs[id] {
					stack = append(stack, int(next.op))
				}
			}
			sc.Branches[i] = buf[lo:len(buf):len(buf)]
			slices.Sort(sc.Branches[i])
		}
	}
	return out, nil
}
