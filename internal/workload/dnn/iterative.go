package dnn

import (
	"fmt"
	"math"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
)

// This file implements the iterative variant of the deep learning job
// (§3.2, "Evaluation of iterative computation"): instead of a single
// training epoch per branch, each hyper-parameter branch unrolls several
// epochs, and an in-loop divergence check terminates branches whose loss is
// exploding or failing to improve — avoiding the full execution of
// non-converging configurations.

// IterativeParams extends Params with the unrolled-epoch configuration.
type IterativeParams struct {
	Params
	// Epochs is the unrolled round count per branch.
	Epochs int
	// DivergenceFactor terminates a branch whose loss after a round
	// exceeds its first-round loss by this factor (or is NaN/Inf).
	DivergenceFactor float64
	// MinImprovement terminates a branch whose loss fails to improve by at
	// least this relative amount per round ("the computation is not
	// converging", §3.2). Zero disables the stall check.
	MinImprovement float64
}

// DefaultIterative returns the iterative configuration: a wider learning
// rate grid (including diverging rates) trained for several epochs.
func DefaultIterative() IterativeParams {
	p := Defaults()
	p.LearningRates = []float64{0.0001, 0.001, 0.01, 0.1, 1.0, 4.0}
	p.Momenta = []float64{0.9}
	p.Inits = Inits()[:2]
	return IterativeParams{Params: p, Epochs: 5, DivergenceFactor: 3, MinImprovement: 0.01}
}

// Validate reports configuration errors.
func (p IterativeParams) Validate() error {
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.Epochs < 1 {
		return fmt.Errorf("dnn: iterative training needs >= 1 epoch")
	}
	if p.DivergenceFactor <= 1 {
		return fmt.Errorf("dnn: divergence factor must be > 1")
	}
	if p.MinImprovement < 0 || p.MinImprovement >= 1 {
		return fmt.Errorf("dnn: minimum improvement %g out of [0, 1)", p.MinImprovement)
	}
	return nil
}

// trainState carries a model and its loss history through the unrolled
// rounds.
type trainState struct {
	model     *Model
	firstLoss float64
	prevLoss  float64
	lastLoss  float64
}

// stateDataset wraps a training state as a dataset whose accounted size is
// the training data the next epoch must process, spread over the cluster's
// partitions; terminated branches forward an empty marker with zero
// accounted bytes, so their remaining rounds are effectively free.
func stateDataset(p IterativeParams, st trainState) *dataset.Dataset {
	return singleRow("state", st, p.Partitions, p.VirtualBytes)
}

// epochCostPerMB converts the per-epoch training cost into a per-MB rate
// over the accounted training-set size, so that terminated (empty) states
// cost nothing.
func (p IterativeParams) epochCostPerMB() float64 {
	mb := float64(p.VirtualBytes) / 1e6
	if mb <= 0 {
		return 0
	}
	return p.TrainCostSec / mb
}

// BuildIterativeMDF constructs the iterative deep learning MDF: one branch
// per (init, learning rate, momentum) combination, each unrolling Epochs
// training rounds with an in-loop divergence check, choosing the converged
// model with the highest validation accuracy.
func BuildIterativeMDF(p IterativeParams) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	type combo struct {
		init Init
		lr   float64
		mom  float64
	}
	var specs []mdf.BranchSpec
	var combos []combo
	i := 0
	for _, w := range p.Inits {
		for _, r := range p.LearningRates {
			for _, m := range p.Momenta {
				specs = append(specs, mdf.BranchSpec{
					Label: fmt.Sprintf("%s,r=%g,m=%g", w.Name(), r, m),
					Hint:  float64(i),
				})
				combos = append(combos, combo{w, r, m})
				i++
			}
		}
	}

	examples := trainSetOf(p.Params)
	val := examples[p.Train:]
	eval := mdf.Evaluator{
		Name: "validate",
		Fn: func(d *dataset.Dataset) float64 {
			if mdf.Terminated(d) {
				return math.Inf(-1) // diverged branches rank last
			}
			return firstRow[trainState](d).model.Accuracy(val)
		},
		CostPerMB: 0.0005,
	}

	b := mdf.NewBuilder()
	src := b.Source("src", sourceFunc(p.Params), 0.0005)
	pre := src.ThenWide("preprocess", preprocessOp(p.Params), 0.04)
	out := pre.Explore("hyperparams", specs, mdf.NewChooser(eval, mdf.TopK(1)),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			c := combos[int(spec.Hint)]
			seed := p.Seed + int64(spec.Hint)
			// Round 0 initialises the model from the preprocessed data.
			init := start.Then("init("+spec.Label+")",
				mdf.WholeDataset("init", func(in *dataset.Dataset) (*dataset.Dataset, error) {
					examples := firstRow[dataRow](in).examples
					m := NewModel(p.Dims, p.Hidden, p.Classes, c.init, seed)
					loss := m.TrainEpoch(examples[:p.Train], c.lr, c.mom)
					return stateDataset(p, trainState{model: m, firstLoss: loss, prevLoss: loss, lastLoss: loss}), nil
				}), p.epochCostPerMB())
			return init.Iterate(mdf.IterationSpec{
				Name:      "epoch(" + spec.Label + ")",
				Rounds:    p.Epochs - 1,
				CostPerMB: p.epochCostPerMB(),
				Step: func(round int, d *dataset.Dataset) (*dataset.Dataset, error) {
					st := firstRow[trainState](d)
					loss := st.model.TrainEpoch(examples[:p.Train], c.lr, c.mom)
					return stateDataset(p, trainState{
						model: st.model, firstLoss: st.firstLoss,
						prevLoss: st.lastLoss, lastLoss: loss,
					}), nil
				},
				Diverged: func(round int, d *dataset.Dataset) bool {
					st := firstRow[trainState](d)
					if math.IsNaN(st.lastLoss) || math.IsInf(st.lastLoss, 0) ||
						st.lastLoss > st.firstLoss*p.DivergenceFactor {
						return true
					}
					return p.MinImprovement > 0 && st.lastLoss > st.prevLoss*(1-p.MinImprovement)
				},
			})
		})
	out.Then("sink", mdf.Identity("model"), 0.0001)
	return b.Build()
}
