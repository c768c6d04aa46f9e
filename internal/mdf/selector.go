package mdf

import (
	"fmt"
	"sort"

	"metadataflow/internal/graph"
)

// Selector is a selection function ρ_v (Def. 3.3): it picks the datasets of
// a subset of branches based on their scores. Selectors are stateless
// factories; each choose execution obtains a fresh incremental session.
//
// The property flags correspond to Tab. 1: an associative selector allows
// datasets of discarded branches to be dropped incrementally; a
// non-exhaustive selector may finalise its selection without insight into
// the remaining results, making not-yet-executed branches superfluous.
type Selector interface {
	// Name labels the selector.
	Name() string
	// Associative reports whether partial selections are valid (Tab. 1).
	Associative() bool
	// NonExhaustive reports whether the selection can complete before all
	// branches are scored (Tab. 1).
	NonExhaustive() bool
	// Better reports whether score a is preferable to score b under this
	// selector's ordering (used by property-based pruning).
	Better(a, b float64) bool
	// NewSession starts an incremental selection over total branches.
	NewSession(total int) graph.ChooseSession
}

// TopK selects the k branches with the highest scores.
func TopK(k int) Selector {
	if k < 1 {
		panic("mdf: TopK needs k >= 1")
	}
	return topK{k: k}
}

// Max selects the single branch with the highest score.
func Max() Selector { return topK{k: 1, name: "max"} }

// BottomK selects the k branches with the lowest scores.
func BottomK(k int) Selector {
	if k < 1 {
		panic("mdf: BottomK needs k >= 1")
	}
	return topK{k: k, lowest: true}
}

// Min selects the single branch with the lowest score, e.g. the branch with
// the lowest MISE in Ex. 3.4.
func Min() Selector { return topK{k: 1, lowest: true, name: "min"} }

type topK struct {
	k      int
	lowest bool
	name   string
}

func (s topK) Name() string {
	if s.name != "" {
		return s.name
	}
	if s.lowest {
		return fmt.Sprintf("bottom-%d", s.k)
	}
	return fmt.Sprintf("top-%d", s.k)
}
func (s topK) Associative() bool   { return true }
func (s topK) NonExhaustive() bool { return false }
func (s topK) Better(a, b float64) bool {
	if s.lowest {
		return a < b
	}
	return a > b
}
func (s topK) NewSession(total int) graph.ChooseSession {
	return &topKSession{sel: s, total: total}
}

type scored struct {
	branch int
	score  float64
}

type topKSession struct {
	sel     sessionOrdering
	total   int
	offered int
	kept    []scored // best first; among equal scores, in the order offered
	discard [1]int   // backing of the list Offer returns
}

// sessionOrdering is the subset of Selector a session needs.
type sessionOrdering interface {
	Better(a, b float64) bool
}

func (s *topKSession) k() int { return s.sel.(topK).k }

// Offer inserts the score into kept, which is sorted, behind every score it
// is not better than: the stable order. A NaN is better than nothing and
// nothing is better than it, so it stays where it was offered and whatever
// follows queues behind it. The list returned is the session's own, valid
// until the next Offer.
func (s *topKSession) Offer(branch int, score float64) (discard []int, done bool) {
	s.offered++
	s.kept = append(s.kept, scored{branch, score})
	i := len(s.kept) - 1
	for ; i > 0 && s.sel.Better(score, s.kept[i-1].score); i-- {
		s.kept[i] = s.kept[i-1]
	}
	s.kept[i] = scored{branch, score}
	if len(s.kept) > s.k() {
		s.discard[0] = s.kept[len(s.kept)-1].branch
		s.kept = s.kept[:len(s.kept)-1]
		discard = s.discard[:]
	}
	return discard, false
}

func (s *topKSession) Selected() []int { return branchesOf(s.kept) }

// NeverSelect reports whether a branch scoring sc — or anything worse — can
// no longer enter the selection.
func (s *topKSession) NeverSelect(sc float64) bool {
	if len(s.kept) < s.k() {
		return false
	}
	worstKept := s.kept[len(s.kept)-1].score
	return !s.sel.Better(sc, worstKept)
}

// Threshold selects every branch whose score is at least (or, when atMost is
// true, at most) the bound.
func Threshold(bound float64, atMost bool) Selector {
	return threshold{bound: bound, atMost: atMost}
}

type threshold struct {
	bound  float64
	atMost bool
}

func (s threshold) Name() string {
	if s.atMost {
		return fmt.Sprintf("threshold(<=%g)", s.bound)
	}
	return fmt.Sprintf("threshold(>=%g)", s.bound)
}
func (s threshold) Associative() bool   { return true }
func (s threshold) NonExhaustive() bool { return false }
func (s threshold) Better(a, b float64) bool {
	if s.atMost {
		return a < b
	}
	return a > b
}
func (s threshold) pass(score float64) bool {
	if s.atMost {
		return score <= s.bound
	}
	return score >= s.bound
}
func (s threshold) NewSession(total int) graph.ChooseSession {
	return &predSession{pred: s.pass, better: s.Better, total: total, k: -1}
}

// Interval selects every branch whose score falls within [lo, hi].
func Interval(lo, hi float64) Selector { return interval{lo: lo, hi: hi} }

type interval struct{ lo, hi float64 }

func (s interval) Name() string        { return fmt.Sprintf("interval[%g,%g]", s.lo, s.hi) }
func (s interval) Associative() bool   { return true }
func (s interval) NonExhaustive() bool { return false }
func (s interval) Better(a, b float64) bool {
	mid := (s.lo + s.hi) / 2
	da, db := abs(a-mid), abs(b-mid)
	return da < db
}
func (s interval) pass(score float64) bool { return score >= s.lo && score <= s.hi }
func (s interval) NewSession(total int) graph.ChooseSession {
	return &predSession{pred: s.pass, better: s.Better, total: total, k: -1}
}

// KThreshold selects the first k branches (in execution order) whose scores
// satisfy the threshold; once k are found, the remaining branches are
// superfluous (Tab. 1: associative and non-exhaustive).
func KThreshold(k int, bound float64, atMost bool) Selector {
	if k < 1 {
		panic("mdf: KThreshold needs k >= 1")
	}
	return kPred{k: k, base: threshold{bound: bound, atMost: atMost}}
}

// KInterval selects the first k branches whose scores fall within [lo, hi].
func KInterval(k int, lo, hi float64) Selector {
	if k < 1 {
		panic("mdf: KInterval needs k >= 1")
	}
	return kPred{k: k, base: interval{lo: lo, hi: hi}}
}

type predicated interface {
	Selector
	pass(float64) bool
}

type kPred struct {
	k    int
	base predicated
}

func (s kPred) Name() string             { return fmt.Sprintf("first-%d %s", s.k, s.base.Name()) }
func (s kPred) Associative() bool        { return true }
func (s kPred) NonExhaustive() bool      { return true }
func (s kPred) Better(a, b float64) bool { return s.base.Better(a, b) }
func (s kPred) NewSession(total int) graph.ChooseSession {
	return &predSession{pred: s.base.pass, better: s.base.Better, total: total, k: s.k}
}

// predSession selects branches passing a predicate; with k >= 0 it stops
// after k passing branches (the first-k semantics of k-threshold and
// k-interval).
type predSession struct {
	pred    func(float64) bool
	better  func(a, b float64) bool
	total   int
	k       int // -1: unbounded
	offered int
	kept    []scored
	done    bool
}

func (s *predSession) Offer(branch int, score float64) (discard []int, done bool) {
	s.offered++
	if s.done {
		return []int{branch}, true
	}
	if !s.pred(score) {
		return []int{branch}, false
	}
	s.kept = append(s.kept, scored{branch, score})
	if s.k >= 0 && len(s.kept) >= s.k {
		s.done = true
		return nil, true
	}
	return nil, false
}

func (s *predSession) Selected() []int { return branchesOf(s.kept) }

// NeverSelect: once a score fails the predicate, an equal-or-worse score
// fails it too (predicates are monotone in the preference order for
// threshold; for interval this holds on the worsening side).
func (s *predSession) NeverSelect(sc float64) bool { return !s.pred(sc) }

// Mode selects the branches whose score equals the most frequent score.
// Mode is not associative (Tab. 1): no dataset can be discarded until all
// branches are scored.
func Mode() Selector { return mode{} }

type mode struct{}

func (mode) Name() string             { return "mode" }
func (mode) Associative() bool        { return false }
func (mode) NonExhaustive() bool      { return false }
func (mode) Better(a, b float64) bool { return a > b }
func (mode) NewSession(total int) graph.ChooseSession {
	return &modeSession{total: total}
}

type modeSession struct {
	total   int
	offered []scored
}

func (s *modeSession) Offer(branch int, score float64) (discard []int, done bool) {
	s.offered = append(s.offered, scored{branch, score})
	if len(s.offered) < s.total {
		return nil, false
	}
	// Final offer: compute the mode and discard everything else.
	counts := map[float64]int{}
	for _, sc := range s.offered {
		counts[sc.score]++
	}
	best, bestN := 0.0, -1
	for _, sc := range s.offered { // deterministic: first-seen wins ties
		if counts[sc.score] > bestN {
			best, bestN = sc.score, counts[sc.score]
		}
	}
	for _, sc := range s.offered {
		if sc.score != best {
			discard = append(discard, sc.branch)
		}
	}
	return discard, true
}

func (s *modeSession) Selected() []int {
	if len(s.offered) < s.total {
		return nil
	}
	counts := map[float64]int{}
	for _, sc := range s.offered {
		counts[sc.score]++
	}
	best, bestN := 0.0, -1
	for _, sc := range s.offered {
		if counts[sc.score] > bestN {
			best, bestN = sc.score, counts[sc.score]
		}
	}
	var kept []scored
	for _, sc := range s.offered {
		if sc.score == best {
			kept = append(kept, sc)
		}
	}
	return branchesOf(kept)
}

func branchesOf(kept []scored) []int {
	out := make([]int, len(kept))
	for i, sc := range kept {
		out[i] = sc.branch
	}
	sort.Ints(out)
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
