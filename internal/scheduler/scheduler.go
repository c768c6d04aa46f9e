// Package scheduler implements stage scheduling for MDFs (§4.2): the
// breadth-first baseline used by existing dataflow systems and the
// branch-aware scheduling (BAS) algorithm (Alg. 1), which traverses the MDF
// breadth-first but executes the branches of an explore depth-first so that
// choose operators evaluate as early as possible.
//
// The engine owns the scheduling loop of Alg. 1 (the sets T_exec, T_open and
// T_cand); a Policy implements line 5, hinted_scheduling: given the current
// candidates and the last executed stage, pick the stage to run next.
package scheduler

import (
	"cmp"
	"slices"

	"metadataflow/internal/graph"
	"metadataflow/internal/stats"
)

// Policy picks the next stage to execute.
type Policy interface {
	// Name labels the policy in results.
	Name() string
	// Init prepares the policy for a plan; called once per run.
	Init(p *graph.Plan)
	// Pick selects the stage to execute next. ready is the non-empty set
	// of stages whose predecessors have all executed or been pruned; last
	// is the stage executed most recently (nil at the start).
	// Implementations may rely on ready being sorted by stage ID. The
	// slice is the engine's own ready list, handed over without a copy:
	// Pick must not modify it or keep it past the call.
	Pick(ready []*graph.Stage, last *graph.Stage) *graph.Stage
	// SortedBranches reports whether the policy executes the branches of
	// an explore in the explorable's sorted order, enabling the
	// monotone/convex pruning of Tab. 1.
	SortedBranches() bool
}

// PickRecord describes one scheduling decision for telemetry: the stage a
// policy chose and the candidates it weighed, in the policy's preference
// order with their hint values.
type PickRecord struct {
	// Chosen is the picked stage.
	Chosen *graph.Stage
	// Candidates are the stages the policy ranked, best first. The slice is
	// valid during the observer's call only and must not be modified or
	// kept: it may be the engine's own ready list (see Hint.Order).
	Candidates []*graph.Stage
	// DepthFirst reports that BAS narrowed the pick to successors of the
	// last executed stage (Alg. 1's depth-first preference).
	DepthFirst bool
}

// PickObservable is implemented by policies that can report each Pick to an
// observer. The engine installs its telemetry probe through this interface;
// policies without it simply stay unobserved.
type PickObservable interface {
	SetPickObserver(func(PickRecord))
}

// Lookahead is implemented by policies that can tell, without changing
// their state, in which order they would pick from a ready list. The engine
// computes the operator functions of ready stages ahead of their pick, on
// other goroutines, in that order; it cannot rank the list itself, because
// ranking may be what changes a policy (a random hint draws from its RNG, so
// one speculative ranking would move every later pick). A policy without the
// interface is never run ahead of.
type Lookahead interface {
	// Lookahead returns the stages of ready in the order in which Pick would
	// take them if no further stage became ready, or nil when the policy
	// cannot tell without changing its state. Any number of calls between
	// two Picks must leave every later Pick as it was. ready is as Pick
	// receives it; the result may be ready itself, or scratch the next call
	// overwrites, and must not be modified or kept.
	Lookahead(ready []*graph.Stage) []*graph.Stage
}

// Hint orders the candidate branches of an explore (§4.2: scheduling hints
// derived from choose properties, domain knowledge, or learned models).
type Hint interface {
	// Name labels the hint.
	Name() string
	// Order returns the candidates in preferred execution order. cands is
	// the caller's own list (the engine's ready list, BAS's successor
	// scratch), valid during the call only: Order must not modify or keep
	// it. It may return cands itself, so the same holds for the caller and
	// the result.
	Order(cands []*graph.Stage) []*graph.Stage
	// Sorted reports whether the order follows the explorable's sorted
	// parameter order (the condition for property-based pruning).
	Sorted() bool
}

// DefaultHint executes branches in definition order.
func DefaultHint() Hint { return defaultHint{} }

type defaultHint struct{}

func (defaultHint) Name() string { return "default" }
func (defaultHint) Sorted() bool { return false }

// Order returns cands itself when it is in ascending stage ID already, as
// the engine's ready list and BAS's successor list always are: a copy per
// branch head was 256 copies of up to 256 pointers a job on a flat
// 256-branch explore.
func (defaultHint) Order(cands []*graph.Stage) []*graph.Stage {
	if slices.IsSortedFunc(cands, graph.CompareStageID) {
		return cands
	}
	return byID(cands)
}

// byID returns a copy of cands in ascending stage ID. It copies even when
// cands arrives in that order (the engine's ready list and BAS's successor
// list do): the stateful hints sort what it returns in place.
func byID(cands []*graph.Stage) []*graph.Stage {
	out := slices.Clone(cands)
	if !slices.IsSortedFunc(out, graph.CompareStageID) {
		slices.SortFunc(out, graph.CompareStageID)
	}
	return out
}

// SortedHint executes branches by ascending (or descending) explorable hint
// value carried on the branch-head operators; used with monotone or convex
// evaluators (§4.2, Fig. 8 "first-4, sorted").
func SortedHint(descending bool) Hint { return sortedHint{desc: descending} }

type sortedHint struct{ desc bool }

func (sortedHint) Name() string { return "sorted" }
func (sortedHint) Sorted() bool { return true }
func (h sortedHint) Order(cands []*graph.Stage) []*graph.Stage {
	out := slices.Clone(cands)
	slices.SortStableFunc(out, func(a, b *graph.Stage) int {
		ha, hb := a.First().Hint, b.First().Hint
		switch {
		case ha == hb:
			return graph.CompareStageID(a, b)
		case (ha < hb) != h.desc:
			return -1
		}
		return 1
	})
	return out
}

// RandomHint executes branches in a seeded random order (Fig. 8 "first-4,
// random"; random search in hyper-parameter optimisation [5]).
func RandomHint(seed int64) Hint { return &randomHint{rng: stats.NewRNG(seed)} }

type randomHint struct{ rng *stats.RNG }

func (*randomHint) Name() string { return "random" }
func (*randomHint) Sorted() bool { return false }
func (h *randomHint) Order(cands []*graph.Stage) []*graph.Stage {
	out := byID(cands)
	perm := h.rng.Perm(len(out))
	shuffled := make([]*graph.Stage, len(out))
	for i, p := range perm {
		shuffled[i] = out[p]
	}
	return shuffled
}

// PriorityHint orders branches by a user-supplied comparison; supports
// stateful, model-based prioritisation (§4.2(iii)).
func PriorityHint(name string, less func(a, b *graph.Stage) bool, sorted bool) Hint {
	return priorityHint{name: name, less: less, sorted: sorted}
}

type priorityHint struct {
	name   string
	less   func(a, b *graph.Stage) bool
	sorted bool
}

func (h priorityHint) Name() string { return h.name }
func (h priorityHint) Sorted() bool { return h.sorted }
func (h priorityHint) Order(cands []*graph.Stage) []*graph.Stage {
	out := slices.Clone(cands)
	slices.SortStableFunc(out, func(a, b *graph.Stage) int {
		switch {
		case h.less(a, b):
			return -1
		case h.less(b, a):
			return 1
		}
		return 0
	})
	return out
}

// BFS is the baseline breadth-first stage scheduler (§4.2): all stages of a
// depth level execute before any stage of the next level.
func BFS() Policy { return &bfs{} }

type bfs struct {
	level   []int // by stage ID
	observe func(PickRecord)
	ahead   []*graph.Stage // scratch: the ranking Lookahead returns
}

func (*bfs) Name() string         { return "BFS" }
func (*bfs) SortedBranches() bool { return false }

// SetPickObserver implements PickObservable.
func (b *bfs) SetPickObserver(f func(PickRecord)) { b.observe = f }
func (b *bfs) Init(p *graph.Plan) {
	// Level = longest path from a source stage.
	b.level = make([]int, len(p.Stages))
	for _, st := range p.Stages { // stage IDs are topologically ordered
		lvl := 0
		for _, pre := range p.Pre(st) {
			if b.level[pre.ID]+1 > lvl {
				lvl = b.level[pre.ID] + 1
			}
		}
		b.level[st.ID] = lvl
	}
}

func (b *bfs) Pick(ready []*graph.Stage, last *graph.Stage) *graph.Stage {
	best := ready[0]
	for _, st := range ready[1:] {
		if b.level[st.ID] < b.level[best.ID] ||
			(b.level[st.ID] == b.level[best.ID] && st.ID < best.ID) {
			best = st
		}
	}
	if b.observe != nil {
		ranked := slices.Clone(ready)
		slices.SortFunc(ranked, b.compare)
		b.observe(PickRecord{Chosen: best, Candidates: ranked})
	}
	return best
}

// compare ranks stages as Pick does: shallowest level first, then lowest ID.
func (b *bfs) compare(x, y *graph.Stage) int {
	if c := cmp.Compare(b.level[x.ID], b.level[y.ID]); c != 0 {
		return c
	}
	return graph.CompareStageID(x, y)
}

// Lookahead implements Lookahead: the levels are fixed by the plan.
func (b *bfs) Lookahead(ready []*graph.Stage) []*graph.Stage {
	b.ahead = append(b.ahead[:0], ready...)
	slices.SortFunc(b.ahead, b.compare)
	return b.ahead
}

// BAS is branch-aware scheduling (Alg. 1): depth-first within explore
// branches, ordered by the hint.
func BAS(hint Hint) Policy {
	if hint == nil {
		hint = DefaultHint()
	}
	return &bas{hint: hint}
}

type bas struct {
	hint    Hint
	plan    *graph.Plan
	observe func(PickRecord)
	succ    []*graph.Stage // scratch: the ready successors of the last stage
}

func (b *bas) Name() string         { return "BAS" }
func (b *bas) SortedBranches() bool { return b.hint.Sorted() }
func (b *bas) Init(p *graph.Plan)   { b.plan = p }

// SetPickObserver implements PickObservable.
func (b *bas) SetPickObserver(f func(PickRecord)) { b.observe = f }

// ObserveScore implements ScoreAware by forwarding evaluator scores to a
// stateful hint.
func (b *bas) ObserveScore(chooseOp *graph.Operator, hint, score float64) {
	if sa, ok := b.hint.(ScoreAware); ok {
		sa.ObserveScore(chooseOp, hint, score)
	}
}

// Lookahead implements Lookahead. A stage that is ready now is picked when
// no successor of the last executed stage is, by the hint's order over the
// ready list; that is the order reported, for the hints whose Order reads
// their state without writing it. Under any other hint — the random one
// draws from its RNG, a caller's own or a PriorityHint's comparison may do
// anything — BAS cannot tell.
func (b *bas) Lookahead(ready []*graph.Stage) []*graph.Stage {
	switch b.hint.(type) {
	case defaultHint, sortedHint, *modelHint, *binarySearchHint:
		return b.hint.Order(ready)
	}
	return nil
}

// Pick implements hinted_scheduling (Alg. 1, line 5). The engine's
// candidate management already realises lines 13–15: ready contains the
// stages whose predecessors are done. BAS prefers successors of the last
// executed stage (depth-first within a branch); among several candidates —
// which happens at branch heads — the hint decides.
func (b *bas) Pick(ready []*graph.Stage, last *graph.Stage) *graph.Stage {
	if last != nil {
		// T• of the last stage, narrowed to what is ready; both lists are
		// sorted by ID, and so is the result.
		succ := b.succ[:0]
		for _, st := range b.plan.Post(last) {
			if _, ok := slices.BinarySearchFunc(ready, st, graph.CompareStageID); ok {
				succ = append(succ, st)
			}
		}
		b.succ = succ
		if len(succ) > 0 {
			ranked := b.hint.Order(succ)
			if b.observe != nil {
				b.observe(PickRecord{Chosen: ranked[0], Candidates: ranked, DepthFirst: true})
			}
			return ranked[0]
		}
	}
	ranked := b.hint.Order(ready)
	if b.observe != nil {
		b.observe(PickRecord{Chosen: ranked[0], Candidates: ranked})
	}
	return ranked[0]
}
