package mdf

import (
	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
)

// Chooser composes an evaluator function and a selection function into the
// choose semantics of Def. 3.3. It implements graph.Chooser.
type Chooser struct {
	Eval Evaluator
	Sel  Selector
}

// NewChooser builds a chooser from an evaluator and a selector.
func NewChooser(eval Evaluator, sel Selector) *Chooser {
	return &Chooser{Eval: eval, Sel: sel}
}

// Score implements graph.Chooser: the evaluator function φ, run on workers.
func (c *Chooser) Score(d *dataset.Dataset) float64 { return c.Eval.Score(d) }

// Associative implements graph.Chooser.
func (c *Chooser) Associative() bool { return c.Sel.Associative() }

// NonExhaustive implements graph.Chooser.
func (c *Chooser) NonExhaustive() bool { return c.Sel.NonExhaustive() }

// MonotoneEval implements graph.Chooser.
func (c *Chooser) MonotoneEval() bool { return c.Eval.Monotone }

// ConvexEval implements graph.Chooser.
func (c *Chooser) ConvexEval() bool { return c.Eval.Convex }

// NewSession implements graph.Chooser. When the selector is associative and
// the evaluator declares a monotone or convex shape over the explorable's
// ordered choices, the session is wrapped with property-based pruning
// (Tab. 1, rows 1–2): once the observed scores move past the optimum in the
// worsening direction, the remaining branches are reported superfluous. The
// wrapper only acts after SetSortedOrder(true) is called, i.e. when the
// scheduler actually executes branches in the explorable's sorted order.
func (c *Chooser) NewSession(total int) graph.ChooseSession {
	base := c.Sel.NewSession(total)
	if !c.Sel.Associative() {
		return base
	}
	if !c.Eval.Monotone && !c.Eval.Convex {
		return base
	}
	ns, ok := base.(neverSelecter)
	if !ok {
		return base
	}
	return &propSession{
		base:     base,
		never:    ns,
		better:   c.Sel.Better,
		monotone: c.Eval.Monotone,
		convex:   c.Eval.Convex,
		total:    total,
	}
}

// neverSelecter is implemented by sessions that can report that a given
// score (or anything worse under the selector's preference) can no longer
// be selected.
type neverSelecter interface {
	NeverSelect(score float64) bool
}

// propSession exploits monotone/convex evaluator shapes (Tab. 1): under
// sorted execution order, a monotone evaluator yields monotone observed
// scores, so two consecutive unselectable, worsening scores imply every
// remaining branch is inferior; a convex evaluator yields scores that fall
// then rise, so the same condition applies once past the valley.
type propSession struct {
	base     graph.ChooseSession
	never    neverSelecter
	better   func(a, b float64) bool
	monotone bool
	convex   bool
	total    int

	sorted    bool
	offered   int
	prev      float64
	prevNever bool
	hasPrev   bool
	improved  bool // convex: an improvement has been observed (valley found)
}

// SetSortedOrder tells the session whether branches are offered in the
// explorable's sorted order, which its pruning requires; the engine calls it
// with true when scheduling with a sorted hint.
func (s *propSession) SetSortedOrder(sorted bool) { s.sorted = sorted }

// Offer implements graph.ChooseSession.
func (s *propSession) Offer(branch int, score float64) (discard []int, done bool) {
	discard, done = s.base.Offer(branch, score)
	s.offered++
	if done || !s.sorted || s.offered >= s.total {
		return discard, done
	}
	worsening := s.hasPrev && !s.better(score, s.prev)
	nowNever := s.never.NeverSelect(score)
	if s.hasPrev && s.better(score, s.prev) {
		s.improved = true
	}
	prune := false
	if s.monotone {
		prune = worsening && nowNever && s.prevNever
	} else if s.convex {
		prune = s.improved && worsening && nowNever && s.prevNever
	}
	s.prev, s.prevNever, s.hasPrev = score, nowNever, true
	if prune {
		return discard, true
	}
	return discard, done
}

// Selected implements graph.ChooseSession.
func (s *propSession) Selected() []int { return s.base.Selected() }
