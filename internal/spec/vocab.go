package spec

import (
	"math"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/stats"
)

// This file is the spec language's vocabulary: one row per operator fn, per
// evaluator and per selector kind, holding every fact about that name.
// Validate looks a name up here; normalisation zeroes the parameters its row
// does not read; the content hash writes the ones it does; Compile builds
// from the row's constructor; and the plan verifier (internal/plan) reads the
// row's shape — which operators filter, which are idempotent, what score
// range an evaluator has. A new name is one new row.

// OpParams is a set of the operator parameters a, b and limit.
type OpParams uint8

// The operator parameters.
const (
	ParamA OpParams = 1 << iota
	ParamB
	ParamLimit
)

// OpRow is one operator fn.
type OpRow struct {
	// Wide marks an operator that reads its whole input at once: it compiles
	// to a wide dependency, a stage boundary.
	Wide bool
	// Filter marks an operator that keeps a subset of its input rows and
	// changes none.
	Filter bool
	// Idempotent marks an operator f with f(f(x)) = f(x).
	Idempotent bool
	// Unbounded marks an operator whose output the plan verifier's interval
	// domain does not bound: its abstract value widens to top.
	Unbounded bool
	// Reads is the parameters the operator reads. Keyed is the one of them
	// (a or limit) that a branch parameter named by paramKey overrides; with
	// none, paramKey is dead.
	Reads, Keyed OpParams
	// build returns the operator of a resolved op (Resolve).
	build func(op OpStep) graph.TransformFunc
}

// Ops is the operator vocabulary, by fn.
var Ops = map[string]OpRow{
	"identity": {Idempotent: true, build: func(op OpStep) graph.TransformFunc {
		return mdf.Identity(op.Name)
	}},
	"affine": {Reads: ParamA | ParamB, Keyed: ParamA, build: func(op OpStep) graph.TransformFunc {
		a, b := op.A, op.B
		return mdf.Map(op.Name, 1.0, func(v float64) float64 { return a*v + b })
	}},
	"square": {build: func(op OpStep) graph.TransformFunc {
		return mdf.Map(op.Name, 1.0, func(v float64) float64 { return v * v })
	}},
	"abs": {Idempotent: true, build: func(op OpStep) graph.TransformFunc {
		return mdf.Map(op.Name, 1.0, math.Abs)
	}},
	"filter-less": {Filter: true, Idempotent: true, Reads: ParamLimit, Keyed: ParamLimit, build: func(op OpStep) graph.TransformFunc {
		limit := op.Limit
		return mdf.Filter(op.Name, func(v float64) bool { return v < limit })
	}},
	"filter-greater": {Filter: true, Idempotent: true, Reads: ParamLimit, Keyed: ParamLimit, build: func(op OpStep) graph.TransformFunc {
		limit := op.Limit
		return mdf.Filter(op.Name, func(v float64) bool { return v > limit })
	}},
	"filter-absless": {Filter: true, Idempotent: true, Reads: ParamLimit, Keyed: ParamLimit, build: func(op OpStep) graph.TransformFunc {
		limit := op.Limit
		return mdf.Filter(op.Name, func(v float64) bool { return math.Abs(v) < limit })
	}},
	"normalize": {Wide: true, Idempotent: true, build: func(op OpStep) graph.TransformFunc {
		return wholeMap(op.Name, func(xs []float64) func(float64) float64 {
			lo, hi := stats.MinMax(xs)
			span := hi - lo
			if span == 0 {
				span = 1
			}
			return func(v float64) float64 { return (v - lo) / span }
		})
	}},
	"standardize": {Wide: true, Idempotent: true, Unbounded: true, build: func(op OpStep) graph.TransformFunc {
		return wholeMap(op.Name, func(xs []float64) func(float64) float64 {
			mean, std := stats.Mean(xs), stats.StdDev(xs)
			if std == 0 {
				std = 1
			}
			return func(v float64) float64 { return (v - mean) / std }
		})
	}},
}

// wholeMap is an operator that maps every row through a function fitted to
// the whole input; an empty input passes through.
func wholeMap(name string, fit func(xs []float64) func(float64) float64) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := mdf.OneInput(name, ins)
		if err != nil {
			return nil, err
		}
		xs := dataset.Flatten[float64](in)
		if len(xs) == 0 {
			return in, nil
		}
		return mdf.MapDataset(name, in, 1.0, fit(xs)), nil
	}
}

// Resolve returns op as it computes under a branch's params: the parameter
// its row lets paramKey override takes the branch's value, when the branch
// sets one. Compile, the content hash and the plan verifier all resolve
// through it.
func Resolve(op OpStep, params map[string]float64) OpStep {
	if op.ParamKey == "" {
		return op
	}
	v, ok := params[op.ParamKey]
	if !ok {
		return op
	}
	switch Ops[op.Fn].Keyed {
	case ParamA:
		op.A = v
	case ParamLimit:
		op.Limit = v
	}
	return op
}

// EvaluatorRow is one evaluator φ.
type EvaluatorRow struct {
	// RowCount marks an evaluator that reads nothing of a branch but its row
	// count.
	RowCount bool
	// Lo and Hi bound every score the evaluator gives, an empty result's
	// included. Unbounded marks an evaluator with no such bound.
	Lo, Hi    float64
	Unbounded bool
	// build returns the evaluator over a source of sourceRows rows.
	build func(sourceRows int) mdf.Evaluator
}

// Evaluators is the evaluator vocabulary, by name. Empty results, such as a
// terminated iteration's, score 0 on the row counts and -Inf on the others,
// so they rank last.
var Evaluators = map[string]EvaluatorRow{
	"size": {RowCount: true, Lo: 0, Hi: math.Inf(1), build: func(int) mdf.Evaluator {
		return mdf.SizeEvaluator()
	}},
	"ratio": {RowCount: true, Lo: 0, Hi: 1, build: func(sourceRows int) mdf.Evaluator {
		// No operator adds rows, so the ratio stays within [0, 1].
		return mdf.RatioEvaluator(sourceRows)
	}},
	"mean": {Unbounded: true, build: func(int) mdf.Evaluator {
		return valueEvaluator("mean", stats.Mean)
	}},
	"neg-mean-abs": {Lo: math.Inf(-1), Hi: 0, build: func(int) mdf.Evaluator {
		return valueEvaluator("neg-mean-abs", func(xs []float64) float64 {
			var s float64
			for _, x := range xs {
				s += math.Abs(x)
			}
			return -s / float64(len(xs))
		})
	}},
	"stddev": {Unbounded: true, build: func(int) mdf.Evaluator {
		return valueEvaluator("stddev", stats.StdDev)
	}},
}

// valueEvaluator scores a branch by a statistic of its values, and an empty
// branch -Inf.
func valueEvaluator(name string, stat func(xs []float64) float64) mdf.Evaluator {
	return mdf.FuncEvaluator(name, func(d *dataset.Dataset) float64 {
		xs := dataset.Flatten[float64](d)
		if len(xs) == 0 {
			return math.Inf(-1)
		}
		return stat(xs)
	})
}

// SelectorParams is a set of the selector parameters.
type SelectorParams uint8

// The selector parameters: k, bound with atMost, and lo with hi.
const (
	SelectK SelectorParams = 1 << iota
	SelectBound
	SelectRange
)

// SelectorRow is one selection function ρ.
type SelectorRow struct {
	// Reads is the parameters the selector reads.
	Reads SelectorParams
	// build returns the selector of a normalised Selector.
	build func(s Selector) mdf.Selector
}

// Selectors is the selector vocabulary, by kind.
var Selectors = map[string]SelectorRow{
	"topk":    {Reads: SelectK, build: func(s Selector) mdf.Selector { return mdf.TopK(s.K) }},
	"bottomk": {Reads: SelectK, build: func(s Selector) mdf.Selector { return mdf.BottomK(s.K) }},
	"min":     {build: func(Selector) mdf.Selector { return mdf.Min() }},
	"max":     {build: func(Selector) mdf.Selector { return mdf.Max() }},
	"threshold": {Reads: SelectBound, build: func(s Selector) mdf.Selector {
		return mdf.Threshold(s.Bound, s.AtMost)
	}},
	"interval": {Reads: SelectRange, build: func(s Selector) mdf.Selector {
		return mdf.Interval(s.Lo, s.Hi)
	}},
	"kthreshold": {Reads: SelectK | SelectBound, build: func(s Selector) mdf.Selector {
		return mdf.KThreshold(s.K, s.Bound, s.AtMost)
	}},
	"kinterval": {Reads: SelectK | SelectRange, build: func(s Selector) mdf.Selector {
		return mdf.KInterval(s.K, s.Lo, s.Hi)
	}},
	"mode": {build: func(Selector) mdf.Selector { return mdf.Mode() }},
}
