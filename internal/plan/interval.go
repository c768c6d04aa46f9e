package plan

import (
	"fmt"
	"math"
	"strconv"

	"metadataflow/internal/spec"
)

// This file is the abstract interpreter the value-flow rules share: every
// row value is abstracted to one closed interval [lo, hi] (bounds may be
// ±Inf) plus an explicit empty state, and the pipeline is walked from the
// source down with per-operator transfer functions. The domain is coarse on
// purpose — it only has to be sound: when a transfer proves a result empty
// (a filter whose passing set is disjoint from the input interval) or
// bounded (an iterate whose post-fixpoint interval stays under a divergence
// threshold), the proof holds for every concrete execution, so emptyfilter
// and degeniterate findings are never false positives. Anything the domain
// cannot bound widens to top and produces no finding.

// valRange is one abstract value: the closed interval [lo, hi], or empty.
type valRange struct {
	lo, hi float64
	empty  bool
}

func top() valRange        { return valRange{lo: math.Inf(-1), hi: math.Inf(1)} }
func emptyRange() valRange { return valRange{empty: true} }
func (r valRange) abs() (lo, hi float64) {
	if r.lo <= 0 && 0 <= r.hi {
		return 0, math.Max(-r.lo, r.hi)
	}
	return math.Min(math.Abs(r.lo), math.Abs(r.hi)), math.Max(math.Abs(r.lo), math.Abs(r.hi))
}

// String renders the interval for finding messages.
func (r valRange) String() string {
	if r.empty {
		return "∅"
	}
	return fmt.Sprintf("[%g, %g]", r.lo, r.hi)
}

func (r valRange) contains(o valRange) bool {
	return o.empty || (!r.empty && r.lo <= o.lo && o.hi <= r.hi)
}

// hull is the least interval holding a and b.
func hull(a, b valRange) valRange {
	switch {
	case b.empty:
		return a
	case a.empty:
		return b
	}
	return valRange{lo: math.Min(a.lo, b.lo), hi: math.Max(a.hi, b.hi)}
}

// sourceRange is the abstract value of the source dataset. Only the uniform
// generator has bounded support; normal and bimodal tails are unbounded, so
// both widen to top.
func sourceRange(src spec.Source) valRange {
	if src.Distribution == "uniform" {
		return valRange{lo: -1, hi: 1}
	}
	return top()
}

// stepPath locates a step of a normalised spec without formatting it: step
// index of the pipeline when explore is nil, otherwise step index of branch
// branch's body of the explore step at explore. The walk makes one per
// explore step on the heap and none per step; a rule formats the path only
// when it builds a finding.
type stepPath struct {
	explore       *stepPath
	branch, index int
}

// format renders the path, followed by suffix, in the syntax of the hash
// report: "pipeline[1]", "pipeline[1].explore.branch[2].body[0]".
func (p stepPath) format(suffix string) string {
	return string(append(p.appendTo(nil), suffix...))
}

func (p stepPath) appendTo(b []byte) []byte {
	if p.explore == nil {
		b = append(b, "pipeline"...)
	} else {
		b = append(p.explore.appendTo(b), ".explore.branch["...)
		b = append(strconv.AppendInt(b, int64(p.branch), 10), "].body"...)
	}
	b = append(strconv.AppendInt(append(b, '['), int64(p.index), 10), ']')
	return b
}

// stepEvent is one visited step: its path, the abstract value entering and
// leaving it, and what the transfer proved.
type stepEvent struct {
	Path   stepPath
	Step   spec.Step
	Params map[string]float64
	In     valRange
	Out    valRange
	// IterStable is set for iterate steps whose transfer reached a
	// post-fixpoint, making Out a sound bound for every round.
	IterStable bool
	// ProvedEmpty marks the step that first proves its output empty on a
	// non-empty input (downstream steps inherit empty without the mark).
	ProvedEmpty bool
}

// walkPipeline walks a *normalized* spec in document order (explore bodies
// before the explore's own event), propagating intervals, and calls visit
// for every step.
func walkPipeline(n *spec.Spec, visit func(stepEvent)) {
	walkSteps(nil, 0, n.Pipeline, nil, sourceRange(n.Source), visit)
}

// walkSteps walks the steps of branch branch's body of the explore step at
// explore, or of the pipeline when explore is nil.
func walkSteps(explore *stepPath, branch int, steps []spec.Step, params map[string]float64, in valRange, visit func(stepEvent)) valRange {
	for i, st := range steps {
		e := stepEvent{Path: stepPath{explore: explore, branch: branch, index: i}, Step: st, Params: params, In: in}
		switch {
		case st.Op != nil:
			e.Out, e.ProvedEmpty = opTransfer(*st.Op, params, in)
		case st.Iterate != nil:
			e.Out, e.IterStable, e.ProvedEmpty = iterateTransfer(*st.Iterate, params, in)
		case st.Explore != nil:
			ex := st.Explore
			at := e.Path
			// The choose keeps some subset of the branch results, so the
			// explore's output lies within the hull of the branch outputs.
			e.Out = emptyRange()
			for j, br := range ex.Branches {
				e.Out = hull(e.Out, walkSteps(&at, j, ex.Body, br.Params, in, visit))
			}
		}
		visit(e)
		in = e.Out
	}
	return in
}

// opTransfer is the per-operator abstract transfer. provedEmpty is set only
// when a non-empty input is proven to produce an empty output. An operator
// its row marks unbounded, and one it has no case for, widens to top.
func opTransfer(op spec.OpStep, params map[string]float64, in valRange) (out valRange, provedEmpty bool) {
	if in.empty {
		return in, false
	}
	if spec.Ops[op.Fn].Unbounded {
		return top(), false
	}
	op = spec.Resolve(op, params)
	a, b, limit := op.A, op.B, op.Limit
	switch op.Fn {
	case "identity":
		return in, false
	case "affine":
		if a == 0 {
			return valRange{lo: b, hi: b}, false
		}
		lo, hi := a*in.lo+b, a*in.hi+b
		if a < 0 {
			lo, hi = hi, lo
		}
		return valRange{lo: lo, hi: hi}, false
	case "square":
		alo, ahi := in.abs()
		return valRange{lo: alo * alo, hi: ahi * ahi}, false
	case "abs":
		alo, ahi := in.abs()
		return valRange{lo: alo, hi: ahi}, false
	case "normalize":
		return valRange{lo: 0, hi: 1}, false
	case "filter-less":
		// Keeps x < limit: empty when every input value is >= limit.
		if limit <= in.lo {
			return emptyRange(), true
		}
		return valRange{lo: in.lo, hi: math.Min(in.hi, limit)}, false
	case "filter-greater":
		// Keeps x > limit: empty when every input value is <= limit.
		if limit >= in.hi {
			return emptyRange(), true
		}
		return valRange{lo: math.Max(in.lo, limit), hi: in.hi}, false
	case "filter-absless":
		// Keeps |x| < limit: empty when no input magnitude is below it.
		alo, _ := in.abs()
		if limit <= alo {
			return emptyRange(), true
		}
		return valRange{lo: math.Max(in.lo, -limit), hi: math.Min(in.hi, limit)}, false
	default:
		return top(), false
	}
}

// iterateTransfer abstracts Rounds applications of the iterate's operator.
// One application gives the state after round one; if a second application
// stays inside it (a post-fixpoint), that interval bounds every later round
// and stable is true. Otherwise the values may grow round over round and
// the result widens to top.
func iterateTransfer(it spec.IterateStep, params map[string]float64, in valRange) (out valRange, stable bool, provedEmpty bool) {
	if in.empty {
		return in, true, false
	}
	r1, e1 := opTransfer(it.Op, params, in)
	if e1 {
		return r1, true, true
	}
	if it.Rounds == 1 {
		return r1, true, false
	}
	r2, e2 := opTransfer(it.Op, params, r1)
	if e2 {
		// The second round provably empties the data; with Rounds >= 2 the
		// iterate output is empty.
		return r2, true, true
	}
	if r1.contains(r2) {
		return r1, true, false
	}
	return top(), false, false
}
