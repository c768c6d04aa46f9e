// Package mdf implements the meta-dataflow model of §3: evaluator functions
// φ that score branch results, selection functions ρ that pick a subset of
// branches, and their composition into the choose semantics of Def. 3.3,
// including the incremental-execution and branch-pruning optimisations of
// Tab. 1.
package mdf

import "metadataflow/internal/dataset"

// Evaluator is the evaluator function φ_v : D → ℝ of a choose operator. It
// computes a score over the values of a branch's result dataset or its
// metadata. Monotone and Convex declare the function's behaviour over the
// ordered choices of the explorable (Tab. 1); they must be supplied by the
// user for domain-specific evaluators.
type Evaluator struct {
	// Name labels the evaluator in logs and DOT output.
	Name string
	// Fn computes the score of a branch result; run on worker nodes. It is
	// called when the choose gets to the branch, while operator functions
	// (graph.TransformFunc) of other branches of the same job may be running
	// on other goroutines: it must not write d, and must synchronise any
	// state it shares with them.
	Fn func(d *dataset.Dataset) float64
	// Monotone declares the evaluator monotone over the explorable's
	// ordered choices.
	Monotone bool
	// Convex declares the evaluator convex over the explorable's ordered
	// choices.
	Convex bool
	// CostPerMB is the virtual compute cost of scoring, in seconds per
	// accounted megabyte of the branch result.
	CostPerMB float64
}

// Score applies the evaluator to a dataset.
func (e Evaluator) Score(d *dataset.Dataset) float64 { return e.Fn(d) }

// SizeEvaluator scores a branch by its dataset row count, the common
// metadata evaluator of §3.1 (φ(d) = |d|), e.g. to detect overly aggressive
// filtering.
func SizeEvaluator() Evaluator {
	return Evaluator{
		Name: "size",
		Fn:   func(d *dataset.Dataset) float64 { return float64(d.NumRows()) },
	}
}

// RatioEvaluator scores a branch by |d| / baseline rows, used by the time
// series job to bound the aggressiveness of masking (§6, Fig. 22).
func RatioEvaluator(baselineRows int) Evaluator {
	return Evaluator{
		Name: "ratio",
		Fn: func(d *dataset.Dataset) float64 {
			if baselineRows == 0 {
				return 0
			}
			return float64(d.NumRows()) / float64(baselineRows)
		},
	}
}

// FuncEvaluator wraps an arbitrary scoring function without property
// declarations.
func FuncEvaluator(name string, fn func(d *dataset.Dataset) float64) Evaluator {
	return Evaluator{Name: name, Fn: fn}
}
