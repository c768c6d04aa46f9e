package mdf

import (
	"fmt"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
)

// This file implements the cross-validation pattern of §3.2: "an explore
// operator splits the input data, a trainer trains the ML model, and a
// choose operator selects the highest quality result." Each fold branch
// shares the materialised input dataset; the per-fold trainer sees the fold
// index and the fold count and is responsible for carving out its own
// training/validation split.

// CrossValidationSpec configures a k-fold cross-validation scope.
type CrossValidationSpec struct {
	// Name labels the scope's operators.
	Name string
	// Folds is k; must be >= 2.
	Folds int
	// Train builds the per-fold trainer: it receives the fold index and
	// fold count and returns the branch's transform.
	Train func(fold, folds int) graph.TransformFunc
	// Evaluate scores a fold's result (e.g. validation accuracy).
	Evaluate Evaluator
	// Select picks the surviving folds; nil defaults to Max (the paper's
	// "selects the highest quality result").
	Select Selector
	// CostPerMB is the per-fold virtual compute cost.
	CostPerMB float64
}

// Validate reports specification errors.
func (s CrossValidationSpec) Validate() error {
	if s.Folds < 2 {
		return fmt.Errorf("mdf: cross validation needs >= 2 folds, got %d", s.Folds)
	}
	if s.Train == nil {
		return fmt.Errorf("mdf: cross validation %q has no trainer", s.Name)
	}
	if s.Evaluate.Fn == nil {
		return fmt.Errorf("mdf: cross validation %q has no evaluator", s.Name)
	}
	return nil
}

// CrossValidate appends a k-fold cross-validation scope to the node and
// returns the choose's output. It panics on an invalid spec (builder-time
// error).
func (n *Node) CrossValidate(spec CrossValidationSpec) *Node {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	sel := spec.Select
	if sel == nil {
		sel = Max()
	}
	specs := make([]BranchSpec, spec.Folds)
	for i := range specs {
		specs[i] = BranchSpec{Label: fmt.Sprintf("fold-%d", i), Hint: float64(i)}
	}
	return n.Explore(spec.Name, specs, NewChooser(spec.Evaluate, sel),
		func(start *Node, bs BranchSpec) *Node {
			fold := int(bs.Hint)
			return start.Then(fmt.Sprintf("%s/train-fold%d", spec.Name, fold),
				spec.Train(fold, spec.Folds), spec.CostPerMB)
		})
}

// FoldRows partitions the rows of a dataset round-robin into the training
// and validation subsets of the given fold; a convenience for trainers.
func FoldRows(d *dataset.Dataset, fold, folds int) (train, validate []dataset.Row) {
	for i, r := range d.Rows() {
		if i%folds == fold {
			validate = append(validate, r)
		} else {
			train = append(train, r)
		}
	}
	return train, validate
}
