package mdf

import (
	"fmt"
	"strconv"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
)

// This file implements the iterative-computation pattern of §3.2: dataflow
// jobs that perform a fixpoint computation unroll their iterations (App. A),
// and "to avoid full execution of branches, a choose operator is
// incorporated in the iteration itself. It then terminates the branch early
// if, e.g., the computation is not converging."
//
// In the unrolled encoding the in-loop termination check runs inside each
// round's operator: once the Diverged predicate rejects a branch's
// intermediate state, the remaining rounds forward an empty marker dataset
// whose accounted size is zero, so the simulated cluster charges
// (and a real cluster would spend) essentially nothing for them, and the
// closing choose scores the branch as failed.

// IterationSpec configures an unrolled iterative computation.
type IterationSpec struct {
	// Name labels the iteration's operators.
	Name string
	// Rounds is the unrolled iteration count.
	Rounds int
	// CostPerMB is the per-round virtual compute cost.
	CostPerMB float64
	// Step advances the computation by one round (1-based).
	Step func(round int, d *dataset.Dataset) (*dataset.Dataset, error)
	// Diverged inspects the state after a round; returning true terminates
	// the branch early (the in-loop choose of §3.2).
	Diverged func(round int, d *dataset.Dataset) bool
}

// Validate reports specification errors.
func (s IterationSpec) Validate() error {
	if s.Rounds < 1 {
		return fmt.Errorf("mdf: iteration needs >= 1 round, got %d", s.Rounds)
	}
	if s.Step == nil {
		return fmt.Errorf("mdf: iteration %q has no step function", s.Name)
	}
	return nil
}

// Iterate appends the unrolled rounds of the iterative computation to the
// node and returns the node after the final round. Terminated branches
// propagate an empty dataset through the remaining rounds at negligible
// cost. Iterate panics on an invalid spec (builder-time error).
func (n *Node) Iterate(spec IterationSpec) *Node {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	cur := n
	for r := 1; r <= spec.Rounds; r++ {
		cur = cur.Then(spec.Name+"/round"+strconv.Itoa(r), roundOp(spec.Name, r, spec.Step, spec.Diverged), spec.CostPerMB)
	}
	return cur
}

// roundOp is the operator of one round of the iteration called name.
func roundOp(name string, round int, step func(int, *dataset.Dataset) (*dataset.Dataset, error),
	diverged func(int, *dataset.Dataset) bool) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := OneInput(name, ins)
		if err != nil {
			return nil, err
		}
		if in.NumRows() == 0 {
			// Terminated earlier: forward the empty marker.
			return emptyMarker(name), nil
		}
		out, err := step(round, in)
		if err != nil {
			return nil, err
		}
		if diverged != nil && diverged(round, out) {
			return emptyMarker(name), nil
		}
		return out, nil
	}
}

// emptyMarker is the zero-cost dataset a terminated iteration forwards.
func emptyMarker(name string) *dataset.Dataset {
	return dataset.FromPartitions(name+"/terminated", make([]dataset.Partition, 1))
}

// Terminated reports whether a branch result is the marker of an iteration
// that was cut short; evaluators use it to score failed branches lowest.
func Terminated(d *dataset.Dataset) bool { return d.NumRows() == 0 }
