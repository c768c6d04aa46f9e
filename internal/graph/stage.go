package graph

import (
	"slices"
	"strconv"
	"sync/atomic"
)

// Stage groups operators whose execution can be pipelined (App. A): a
// maximal chain of narrow dependencies between operators of in/out degree
// one. Explore and choose operators are assigned to their own stages (§4.2:
// "choose operators are assigned to separate stages").
type Stage struct {
	// ID is the stage's index within its plan.
	ID int
	// Ops is the pipelined operator chain in execution order.
	Ops []*Operator

	// branch, closes and input are the stage's rows of its plan's tables,
	// held in the stage so that they cost the plan no table of its own:
	// its innermost (scope index, branch index), Scope -1 outside every
	// scope (Plan.Branch); the index of the scope a choose stage closes, -1
	// for every other stage (Plan.ScopeOfChoose); its position among the
	// inputs of the choose stage it feeds, or -1 (Plan.ChooseInput).
	branch        BranchRef
	closes, input int32

	// label is String(), formatted by the first call that asks: telemetry
	// names every span and decision after its stage, a run whose probe
	// keeps no audit names none. Callers on different goroutines may both format it; they
	// store equal strings, and a reader sees none or a whole one.
	label atomic.Pointer[string]
}

// First returns the first operator of the chain.
func (s *Stage) First() *Operator { return s.Ops[0] }

// Last returns the last operator of the chain; the stage's output dataset is
// the output of this operator.
func (s *Stage) Last() *Operator { return s.Ops[len(s.Ops)-1] }

// IsChoose reports whether the stage is a singleton choose stage.
func (s *Stage) IsChoose() bool { return len(s.Ops) == 1 && s.Ops[0].Kind == KindChoose }

// IsExplore reports whether the stage is a singleton explore stage.
func (s *Stage) IsExplore() bool { return len(s.Ops) == 1 && s.Ops[0].Kind == KindExplore }

// CompareStageID orders stages by ascending ID, for the slices package.
func CompareStageID(a, b *Stage) int { return a.ID - b.ID }

// SearchID finds the stage with the given ID in stages, which are sorted by
// ID: its position and true, or the position it would be inserted at and
// false. It compares the IDs directly, not through a comparator: the
// engine's ready list and BAS's successor test search on every pick.
func SearchID(stages []*Stage, id int) (int, bool) {
	lo, hi := 0, len(stages)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if stages[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(stages) && stages[lo].ID == id
}

// String implements fmt.Stringer.
func (s *Stage) String() string {
	if l := s.label.Load(); l != nil {
		return *l
	}
	var l string
	if id := strconv.Itoa(s.ID); len(s.Ops) == 1 {
		l = "T" + id + "[" + s.Ops[0].Name + "]"
	} else {
		l = "T" + id + "[" + s.Ops[0].Name + ".." + s.Ops[len(s.Ops)-1].Name + "]"
	}
	s.label.Store(&l)
	return l
}

// Plan is the stage decomposition of a graph, with stage-level dependency
// sets and the branch structure needed by branch-aware scheduling and
// anticipatory memory management. Everything the engine and the schedulers
// look up per step is precomputed here and indexed by operator or stage ID.
//
// A plan stands alone: it holds the graph's operators and scopes but not the
// graph, so that a plan kept for as long as its document is (the service's
// vet memo) keeps no adjacency lists with it. It is immutable once built and
// may be shared by runs on any number of goroutines; the slices its
// accessors return are the plan's own and must not be modified.
type Plan struct {
	Stages []*Stage
	// Scopes are the explore/choose scopes of the MDF, outermost first.
	Scopes []*Scope

	stageOf []*Stage // by operator ID
	// edges holds •T of every stage in stage order, then T• of every stage
	// in stage order: each stage edge is listed once in either half.
	edges []*Stage
	// bounds cuts edges into the stage lists, n being the stage count: •T
	// of stage s is edges[bounds[s]:bounds[s+1]] and T• is
	// edges[bounds[n+s]:bounds[n+s+1]]. The 2n+1 bounds are followed by one
	// bit per •T edge, in the order of edges, 32 to a word: set when the
	// edge's dependency is wide (Wide).
	bounds []uint32
	// branchStages holds the stages of every branch, in (scope, branch)
	// order, each branch's in ascending stage ID. branchOff cuts it: with
	// k = branchOff[s] + b, branch b of scope s is
	// branchStages[branchOff[k]:branchOff[k+1]]. The first len(Scopes)
	// entries are those starts, the rest one offset per branch and the end.
	branchStages []*Stage
	branchOff    []uint32
}

// BranchRef locates a stage within the scope structure.
type BranchRef struct {
	// Scope indexes Plan.Scopes.
	Scope int
	// Branch is the branch index within the scope.
	Branch int
}

// BuildPlan validates g and derives its stages. A graph that passed Validate
// and has not changed since is not validated again: its stages are derived
// from what Validate kept. BuildPlan writes nothing of g, so plans of one
// graph may be built concurrently, and the plan does not refer to g.
func BuildPlan(g *Graph) (*Plan, error) {
	order, scopes := g.order, g.scopes
	if order == nil {
		var err error
		if order, scopes, err = g.validate(); err != nil {
			return nil, err
		}
	}
	return g.plan(order, scopes), nil
}

// plan derives the stages of a valid g from its topological order and its
// scopes.
func (g *Graph) plan(order []*Operator, scopes []*Scope) *Plan {
	// The stages and their chains are cut from two slabs: one stage per
	// operator that does not continue its predecessor's chain, and every
	// operator in one chain.
	n := 0
	for _, op := range g.ops {
		if !g.continuesChain(op) {
			n++
		}
	}
	p := &Plan{
		Stages:  make([]*Stage, n),
		Scopes:  scopes,
		stageOf: make([]*Stage, len(g.ops)),
	}
	stages := make([]Stage, n)
	chains := make([]*Operator, 0, len(order))
	n = 0
	for _, op := range order {
		if p.stageOf[op.ID] != nil {
			continue
		}
		st := &stages[n]
		*st = Stage{ID: n, branch: BranchRef{Scope: -1}, closes: -1, input: -1}
		p.Stages[n] = st
		n++
		lo := len(chains)
		// Explore and choose are singleton stages; any other chain extends
		// while it stays pipelineable.
		for cur := op; ; {
			chains = append(chains, cur)
			p.stageOf[cur.ID] = st
			outs := g.outs[cur.ID]
			if len(outs) != 1 || !g.continuesChain(g.ops[outs[0].op]) {
				break
			}
			cur = g.ops[outs[0].op]
		}
		st.Ops = chains[lo:len(chains):len(chains)]
	}
	p.buildStageEdges(g)
	p.buildBranchRefs()
	return p
}

// continuesChain reports whether op is pipelined into the stage of its one
// predecessor: neither of them explores or chooses, the predecessor feeds op
// alone, and through a narrow dependency.
func (g *Graph) continuesChain(op *Operator) bool {
	ins := g.ins[op.ID]
	if len(ins) != 1 || ins[0].kind() != Narrow || op.Kind == KindExplore || op.Kind == KindChoose {
		return false
	}
	pre := g.ops[ins[0].op]
	return len(g.outs[pre.ID]) == 1 && pre.Kind != KindExplore && pre.Kind != KindChoose
}

// buildStageEdges derives •T and T•. Only the first operator of a chain has
// predecessors outside it and only the last has successors outside it, and
// distinct operators across such an edge lie in distinct stages, so the
// stage edges are the operator edges of those two, with no duplicates.
// Stage IDs are topologically ordered; walking the stages in descending ID
// order and filling every list from its end leaves both lists sorted by ID.
func (p *Plan) buildStageEdges(g *Graph) {
	n := len(p.Stages)
	edges := 0
	for _, st := range p.Stages {
		edges += len(g.ins[st.First().ID])
	}
	p.edges = make([]*Stage, 2*edges)
	p.bounds = make([]uint32, 2*n+1+(edges+31)/32)
	// bounds[j] first counts list j's entries, then, summed, ends it, and
	// is moved back one entry per entry filled, to the list's start.
	bounds := p.bounds[:2*n+1]
	for _, st := range p.Stages {
		bounds[st.ID] = uint32(len(g.ins[st.First().ID]))
		bounds[n+st.ID] = uint32(len(g.outs[st.Last().ID]))
	}
	for j := 1; j < 2*n; j++ {
		bounds[j] += bounds[j-1]
	}
	bounds[2*n] = uint32(2 * edges)
	for i := n - 1; i >= 0; i-- {
		st := p.Stages[i]
		for _, to := range g.outs[st.Last().ID] {
			b := p.stageOf[to.op]
			bounds[b.ID]--
			p.edges[bounds[b.ID]] = st
			p.setWide(bounds[b.ID], to.kind() == Wide)
		}
		for _, from := range g.ins[st.First().ID] {
			a := p.stageOf[from.op]
			bounds[n+a.ID]--
			p.edges[bounds[n+a.ID]] = st
		}
	}
	// A choose's pre-set keeps the choose's input-edge order instead, since
	// branch index corresponds to input position (Def. 3.3).
	for _, st := range p.Stages {
		if !st.IsChoose() {
			continue
		}
		lo := bounds[st.ID]
		for i, from := range g.ins[st.Ops[0].ID] {
			a := p.stageOf[from.op]
			p.edges[lo+uint32(i)] = a
			p.setWide(lo+uint32(i), from.kind() == Wide)
			a.input = int32(i)
		}
	}
}

// setWide records whether the •T edge at position e of p.edges is wide.
func (p *Plan) setWide(e uint32, wide bool) {
	word, bit := &p.bounds[2*len(p.Stages)+1+int(e/32)], uint32(1)<<(e%32)
	if wide {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// buildBranchRefs derives the per-stage branch reference, the scope of
// every choose stage, and the stages of every branch.
func (p *Plan) buildBranchRefs() {
	// One buffer for the stages of all branches: a branch lists the stages
	// whose first operator is a member.
	branches, heads := 0, 0
	for _, sc := range p.Scopes {
		branches += len(sc.Branches)
		for _, members := range sc.Branches {
			for _, opID := range members {
				if p.stageOf[opID].Ops[0].ID == opID {
					heads++
				}
			}
		}
	}
	buf := make([]*Stage, 0, heads)
	off := make([]uint32, len(p.Scopes), len(p.Scopes)+branches+1)
	// Innermost scope wins: a stage takes the reference of the deepest scope
	// that lists it. Scopes come in topological order of their explores,
	// which is not necessarily by depth.
	for si, sc := range p.Scopes {
		p.stageOf[sc.Choose.ID].closes = int32(si)
		off[si] = uint32(len(off))
		for bi, members := range sc.Branches {
			// Members ascend by operator ID; their stages need not, so
			// collect each stage once and sort.
			lo := len(buf)
			off = append(off, uint32(lo))
			for _, opID := range members {
				st := p.stageOf[opID]
				if st.Ops[0].ID != opID {
					continue // a later operator of a chain already collected
				}
				buf = append(buf, st)
				if st.branch.Scope < 0 || sc.Depth >= p.Scopes[st.branch.Scope].Depth {
					st.branch = BranchRef{Scope: si, Branch: bi}
				}
			}
			slices.SortFunc(buf[lo:], CompareStageID)
		}
	}
	p.branchStages, p.branchOff = buf, append(off, uint32(len(buf)))
}

// StageOf returns the stage containing op.
func (p *Plan) StageOf(op *Operator) *Stage { return p.stageOf[op.ID] }

// Pre returns •T: the stages whose outputs the given stage consumes, in
// ascending stage ID. For choose stages the order matches the choose
// operator's input-edge order instead.
func (p *Plan) Pre(st *Stage) []*Stage {
	lo, hi := p.bounds[st.ID], p.bounds[st.ID+1]
	return p.edges[lo:hi:hi]
}

// Post returns T•: the stages that consume the given stage's output, in
// ascending stage ID.
func (p *Plan) Post(st *Stage) []*Stage {
	n := len(p.Stages)
	lo, hi := p.bounds[n+st.ID], p.bounds[n+st.ID+1]
	return p.edges[lo:hi:hi]
}

// Wide reports whether the dependency of st on Pre(st)[i] is wide: whether
// the edge from that stage's last operator to st's first is.
func (p *Plan) Wide(st *Stage, i int) bool {
	e := p.bounds[st.ID] + uint32(i)
	return p.bounds[2*len(p.Stages)+1+int(e/32)]&(1<<(e%32)) != 0
}

// Branch returns the innermost scope/branch reference of a stage, or nil if
// the stage lies outside every exploration scope.
func (p *Plan) Branch(st *Stage) *BranchRef {
	if st.branch.Scope < 0 {
		return nil
	}
	return &st.branch
}

// ScopeOfChoose returns the scope closed by the given choose stage, or nil.
func (p *Plan) ScopeOfChoose(st *Stage) *Scope {
	if st.closes < 0 {
		return nil
	}
	return p.Scopes[st.closes]
}

// BranchStages returns the stages of branch b of scope sc in topological
// order (ascending stage ID).
func (p *Plan) BranchStages(sc *Scope, b int) []*Stage {
	k := int(p.branchOff[sc.index]) + b
	lo, hi := p.branchOff[k], p.branchOff[k+1]
	return p.branchStages[lo:hi:hi]
}

// ChooseInput returns the position of st among the inputs of the choose
// stage it feeds — the index of the branch st completes (Def. 3.3) — or -1
// when st feeds no choose.
func (p *Plan) ChooseInput(st *Stage) int { return int(st.input) }

// Size returns the counts a plan's footprint follows: its operators, its
// stages and its stage edges.
func (p *Plan) Size() (ops, stages, edges int) {
	return len(p.stageOf), len(p.Stages), len(p.edges) / 2
}
