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
// look up per step is precomputed here and indexed by operator or stage ID;
// a plan is immutable once built, and the slices its accessors return are
// the plan's own and must not be modified.
type Plan struct {
	Graph  *Graph
	Stages []*Stage
	// Scopes are the explore/choose scopes of the MDF, outermost first.
	Scopes []*Scope

	stageOf []*Stage   // by operator ID
	pre     [][]*Stage // by stage ID
	post    [][]*Stage // by stage ID
	// branchOf holds, by stage ID, the stage's innermost (scope index,
	// branch index), or nil when the stage is outside all scopes.
	branchOf []*BranchRef
	// scopeOf holds, by stage ID, the scope a choose stage closes; nil for
	// every other stage.
	scopeOf []*Scope
	// branchStages holds the stages of every branch, by scope index and
	// branch index, in ascending stage ID.
	branchStages [][][]*Stage
	// inputOf holds, by stage ID, the stage's position among the inputs of
	// the choose stage it feeds, or -1. A stage feeds at most one choose:
	// two would both close the scope the stage executes in.
	inputOf []int
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
// graph may be built concurrently.
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
	p := &Plan{
		Graph:   g,
		Stages:  make([]*Stage, 0, len(order)),
		Scopes:  scopes,
		stageOf: make([]*Stage, len(g.ops)),
	}
	// The stages and their chains are cut from two slabs the topological
	// order sizes: no more stages than operators, and every operator in one
	// chain.
	stages := make([]Stage, 0, len(order))
	chains := make([]*Operator, 0, len(order))
	for _, op := range order {
		if p.stageOf[op.ID] != nil {
			continue
		}
		stages = append(stages, Stage{ID: len(stages)})
		st := &stages[len(stages)-1]
		p.Stages = append(p.Stages, st)
		lo := len(chains)
		cur := op
		chains = append(chains, cur)
		p.stageOf[cur.ID] = st
		// Explore and choose are singleton stages; any other chain extends
		// while it stays pipelineable.
		for cur.Kind != KindExplore && cur.Kind != KindChoose {
			outs := g.outs[cur.ID]
			if len(outs) != 1 || outs[0].dep != Narrow {
				break
			}
			next := g.ops[outs[0].op]
			if next.Kind == KindExplore || next.Kind == KindChoose {
				break
			}
			if len(g.ins[next.ID]) != 1 {
				break
			}
			chains = append(chains, next)
			p.stageOf[next.ID] = st
			cur = next
		}
		st.Ops = chains[lo:len(chains):len(chains)]
	}
	p.buildStageEdges()
	p.buildBranchRefs()
	return p
}

// buildStageEdges derives •T and T•. Only the first operator of a chain has
// predecessors outside it and only the last has successors outside it, and
// distinct operators across such an edge lie in distinct stages, so the
// stage edges are the operator edges of those two, with no duplicates.
// Stage IDs are topologically ordered; walking the stages in ID order and
// appending to the far side of each edge leaves both lists sorted by ID.
func (p *Plan) buildStageEdges() {
	g := p.Graph
	n := len(p.Stages)
	p.pre = make([][]*Stage, n)
	p.post = make([][]*Stage, n)
	p.inputOf = make([]int, n)
	edges := 0
	for _, st := range p.Stages {
		edges += len(g.ins[st.First().ID])
	}
	preBuf := make([]*Stage, edges)
	postBuf := make([]*Stage, edges)
	for _, st := range p.Stages {
		nin, nout := len(g.ins[st.First().ID]), len(g.outs[st.Last().ID])
		p.pre[st.ID], preBuf = preBuf[:0:nin], preBuf[nin:]
		p.post[st.ID], postBuf = postBuf[:0:nout], postBuf[nout:]
		p.inputOf[st.ID] = -1
	}
	for _, st := range p.Stages {
		for _, to := range g.outs[st.Last().ID] {
			b := p.stageOf[to.op]
			p.pre[b.ID] = append(p.pre[b.ID], st)
		}
		for _, from := range g.ins[st.First().ID] {
			a := p.stageOf[from.op]
			p.post[a.ID] = append(p.post[a.ID], st)
		}
	}
	// A choose's pre-set keeps the choose's input-edge order instead, since
	// branch index corresponds to input position (Def. 3.3).
	for _, st := range p.Stages {
		if !st.IsChoose() {
			continue
		}
		for i, from := range g.ins[st.Ops[0].ID] {
			a := p.stageOf[from.op]
			p.pre[st.ID][i] = a
			p.inputOf[a.ID] = i
		}
	}
}

// buildBranchRefs derives the per-stage branch reference, the scope of
// every choose stage, and the stages of every branch.
func (p *Plan) buildBranchRefs() {
	n := len(p.Stages)
	p.scopeOf = make([]*Scope, n)
	p.branchStages = make([][][]*Stage, len(p.Scopes))
	// One list of branches for all scopes and one buffer for their stages: a
	// branch has no more stages than members.
	branches, members := 0, 0
	for _, sc := range p.Scopes {
		branches += len(sc.Branches)
		for _, m := range sc.Branches {
			members += len(m)
		}
	}
	lists := make([][]*Stage, branches)
	buf := make([]*Stage, 0, members)
	// Innermost scope wins: a stage takes the reference of the deepest scope
	// that lists it. Scopes come in topological order of their explores,
	// which is not necessarily by depth.
	refs := make([]BranchRef, n)
	depth := make([]int, n)
	p.branchOf = make([]*BranchRef, n)
	for si, sc := range p.Scopes {
		p.scopeOf[p.stageOf[sc.Choose.ID].ID] = sc
		p.branchStages[si], lists = lists[:len(sc.Branches):len(sc.Branches)], lists[len(sc.Branches):]
		for bi, members := range sc.Branches {
			// Members ascend by operator ID; their stages need not, so
			// collect each stage once and sort.
			lo := len(buf)
			for _, opID := range members {
				st := p.stageOf[opID]
				if st.Ops[0].ID != opID {
					continue // a later operator of a chain already collected
				}
				buf = append(buf, st)
				if sc.Depth >= depth[st.ID] {
					depth[st.ID] = sc.Depth
					refs[st.ID] = BranchRef{Scope: si, Branch: bi}
					p.branchOf[st.ID] = &refs[st.ID]
				}
			}
			stages := buf[lo:len(buf):len(buf)]
			slices.SortFunc(stages, CompareStageID)
			p.branchStages[si][bi] = stages
		}
	}
}

// StageOf returns the stage containing op.
func (p *Plan) StageOf(op *Operator) *Stage { return p.stageOf[op.ID] }

// Pre returns •T: the stages whose outputs the given stage consumes, in
// ascending stage ID. For choose stages the order matches the choose
// operator's input-edge order instead.
func (p *Plan) Pre(st *Stage) []*Stage { return p.pre[st.ID] }

// Post returns T•: the stages that consume the given stage's output, in
// ascending stage ID.
func (p *Plan) Post(st *Stage) []*Stage { return p.post[st.ID] }

// Branch returns the innermost scope/branch reference of a stage, or nil if
// the stage lies outside every exploration scope.
func (p *Plan) Branch(st *Stage) *BranchRef { return p.branchOf[st.ID] }

// ScopeOfChoose returns the scope closed by the given choose stage, or nil.
func (p *Plan) ScopeOfChoose(st *Stage) *Scope { return p.scopeOf[st.ID] }

// BranchStages returns the stages of branch b of scope sc in topological
// order (ascending stage ID).
func (p *Plan) BranchStages(sc *Scope, b int) []*Stage {
	return p.branchStages[sc.index][b]
}

// ChooseInput returns the position of st among the inputs of the choose
// stage it feeds — the index of the branch st completes (Def. 3.3) — or -1
// when st feeds no choose.
func (p *Plan) ChooseInput(st *Stage) int { return p.inputOf[st.ID] }
