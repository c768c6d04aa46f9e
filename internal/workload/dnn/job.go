package dnn

import (
	"fmt"
	"sync"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
)

// Params configures the deep learning MDF.
type Params struct {
	// Train and Val are the training and validation sample counts; Dims
	// the feature dimension (CIFAR-10 has 3072; smaller keeps in-process
	// cost low while the virtual size models the real volume).
	Train, Val, Dims int
	// Hidden is the hidden-layer width; Classes the label count.
	Hidden, Classes int
	// Noise is the within-class noise of the synthetic generator.
	Noise float64
	// VirtualBytes is the accounted size of the training set (CIFAR-10 is
	// ~170 MB; the paper replicates it across workers).
	VirtualBytes int64
	// Partitions is the dataset partition count.
	Partitions int
	// Inits, LearningRates and Momenta are the explorables W, R, M.
	Inits         []Init
	LearningRates []float64
	Momenta       []float64
	// TrainCostSec is the virtual compute cost of one training run over
	// the full accounted dataset, per epoch.
	TrainCostSec float64
	// Seed drives the generators.
	Seed int64
}

// Defaults returns the paper's explorable grid (8 × 4 × 4 = 128 paths) at
// in-process scale.
func Defaults() Params {
	return Params{
		Train: 600, Val: 200, Dims: 48,
		Hidden: 24, Classes: 10,
		Noise:        0.8,
		VirtualBytes: 2 << 30,
		Partitions:   8,
		Inits:        Inits(),
		LearningRates: []float64{
			0.0001, 0.001, 0.005, 0.01,
		},
		Momenta:      []float64{0.25, 0.5, 0.75, 0.9},
		TrainCostSec: 60,
		Seed:         1,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Train < 10 || p.Val < 10 {
		return fmt.Errorf("dnn: need >= 10 train and val samples")
	}
	if p.Dims < 2 || p.Hidden < 2 || p.Classes < 2 {
		return fmt.Errorf("dnn: degenerate model shape")
	}
	if len(p.Inits) < 2 || len(p.LearningRates) < 1 || len(p.Momenta) < 1 {
		return fmt.Errorf("dnn: need >= 2 inits and >= 1 learning rate and momentum")
	}
	if p.Partitions < 1 {
		return fmt.Errorf("dnn: need >= 1 partition")
	}
	return nil
}

// Paths returns |W × R × M|, the exhaustive exploration size.
func (p Params) Paths() int { return len(p.Inits) * len(p.LearningRates) * len(p.Momenta) }

// modelRow wraps a trained model as the single row of a branch's output
// dataset.
type modelRow struct {
	model *Model
}

// dataRow wraps the preprocessed example set as a single logical row.
type dataRow struct {
	examples []Example
}

// singleRow wraps v as the only row of a dataset partitioned across parts
// workers: the logical payload rides in partition 0 while the accounted
// bytes spread evenly, modelling a training set (or the state of a training
// run over it) partitioned over the cluster.
func singleRow[T any](name string, v T, parts int, bytes int64) *dataset.Dataset {
	d := dataset.FromPartitions(name, make([]dataset.Partition, parts))
	d.Parts[0].Col = dataset.Col[T]{v}
	d.SetVirtualBytes(bytes)
	return d
}

// firstRow returns the payload of a singleRow dataset.
func firstRow[T any](d *dataset.Dataset) T {
	for _, p := range d.Parts {
		if p.NumRows() > 0 {
			return dataset.Values[T](p)[0]
		}
	}
	panic("dnn: dataset has no payload row")
}

// sourceFunc emits the raw example set: the cached one, which nothing
// downstream writes (preprocessOp scales into copies).
func sourceFunc(p Params) graph.TransformFunc {
	examples := trainSetOf(p)
	return mdf.SourceFunc(func() *dataset.Dataset {
		return singleRow("cifar-syn", dataRow{examples: examples}, p.Partitions, p.VirtualBytes)
	})
}

// preprocessOp scales features into [-1, 1] per dimension — the shared
// pre-processing stage whose reuse drives Fig. 5's MDF advantage.
func preprocessOp(p Params) graph.TransformFunc {
	return mdf.WholeDataset("preprocess", func(in *dataset.Dataset) (*dataset.Dataset, error) {
		raw := firstRow[dataRow](in).examples
		lo := make([]float64, p.Dims)
		hi := make([]float64, p.Dims)
		for j := 0; j < p.Dims; j++ {
			lo[j], hi[j] = raw[0].X[j], raw[0].X[j]
		}
		for _, ex := range raw {
			for j, v := range ex.X {
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
		scaled := make([]Example, len(raw))
		for i, ex := range raw {
			x := make([]float64, p.Dims)
			for j, v := range ex.X {
				span := hi[j] - lo[j]
				if span == 0 {
					span = 1
				}
				x[j] = 2*(v-lo[j])/span - 1
			}
			scaled[i] = Example{X: x, Y: ex.Y}
		}
		return singleRow("preprocessed", dataRow{examples: scaled}, p.Partitions, in.VirtualBytes()), nil
	})
}

// trainOp trains a model from the given initialisation for one epoch.
func trainOp(p Params, init Init, lr, momentum float64, seed int64) graph.TransformFunc {
	name := fmt.Sprintf("train(%s,r=%g,m=%g)", init.Name(), lr, momentum)
	return mdf.WholeDataset(name, func(in *dataset.Dataset) (*dataset.Dataset, error) {
		examples := firstRow[dataRow](in).examples
		m := NewModel(p.Dims, p.Hidden, p.Classes, init, seed)
		m.TrainEpoch(examples[:p.Train], lr, momentum)
		return singleRow("model", modelRow{model: m}, 1,
			int64(8*(len(m.W1)+len(m.W2)+len(m.B1)+len(m.B2)))), nil
	})
}

// continueTrainOp continues training a chosen model with new
// hyper-parameters (the early-choose MDF of Fig. 5: "choose the best result
// as the starting point for the exploration of the hyper-parameters").
func continueTrainOp(p Params, lr, momentum float64) graph.TransformFunc {
	name := fmt.Sprintf("train(r=%g,m=%g)", lr, momentum)
	return mdf.WholeDataset(name, func(in *dataset.Dataset) (*dataset.Dataset, error) {
		base := firstRow[modelRow](in).model
		m := base.Clone()
		// The continued round trains on the raw generator output (the
		// cached set the source emits), not on preprocessOp's scaled copy
		// the first round saw. A known deviation, see ARCHITECTURE.md
		// "Workloads": BENCH_fig5.json and the benchmark goldens pin it.
		examples := trainSetOf(p)
		m.TrainEpoch(examples[:p.Train], lr, momentum)
		return singleRow("model", modelRow{model: m}, 1, in.VirtualBytes()), nil
	})
}

// trainSetKey identifies one generator parameterisation.
type trainSetKey struct {
	seed             int64
	train, val, dims int
	classes          int
	noise            float64
}

// trainSetCache memoises the example set per parameterisation so sources,
// continued-training branches and evaluators reuse it. Graph builders and
// operator functions of any number of concurrent jobs go through it, hence
// the lock; the sets themselves are only ever read.
var (
	trainSetMu    sync.Mutex
	trainSetCache = map[trainSetKey][]Example{}
)

func trainSetOf(p Params) []Example {
	key := trainSetKey{p.Seed, p.Train, p.Val, p.Dims, p.Classes, p.Noise}
	trainSetMu.Lock()
	defer trainSetMu.Unlock()
	if ex, ok := trainSetCache[key]; ok {
		return ex
	}
	raw := GenerateExamples(p.Train+p.Val, p.Dims, p.Classes, p.Noise, p.Seed)
	trainSetCache[key] = raw
	return raw
}

// AccuracyEvaluator scores a model branch by validation accuracy
// (Fig. 21's validate()).
func AccuracyEvaluator(p Params) mdf.Evaluator {
	val := trainSetOf(p)[p.Train:]
	return mdf.Evaluator{
		Name: "validate",
		Fn: func(d *dataset.Dataset) float64 {
			if d.NumRows() == 0 {
				return 0
			}
			return firstRow[modelRow](d).model.Accuracy(val)
		},
		CostPerMB: 0.02,
	}
}

// trainCost returns the fixed virtual cost of one training branch.
func (p Params) trainCost() float64 { return p.TrainCostSec }

// BuildExhaustiveMDF constructs the Fig. 21 MDF: one flat explore over all
// |W × R × M| combinations, choosing the top-1 validation accuracy.
func BuildExhaustiveMDF(p Params) (*graph.Graph, error) {
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
	b := mdf.NewBuilder()
	src := b.Source("src", sourceFunc(p), 0.0005)
	pre := src.ThenWide("preprocess", preprocessOp(p), 0.04)
	out := pre.Explore("hyperparams", specs,
		mdf.NewChooser(AccuracyEvaluator(p), mdf.TopK(1)),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			c := combos[int(spec.Hint)]
			n := start.Then("train("+spec.Label+")",
				trainOp(p, c.init, c.lr, c.mom, p.Seed+int64(spec.Hint)), 0)
			n.Op().FixedCost = p.trainCost()
			return n
		})
	out.Then("sink", mdf.Identity("model"), 0.0001)
	return b.Build()
}

// BuildEarlyChooseMDF constructs the early-choose variant of Fig. 5: first
// explore the weight initialisations W with default hyper-parameters and
// choose the best; then explore R × M continuing from the chosen model,
// reducing the explored paths from |W × R × M| to |W| + |R × M|.
func BuildEarlyChooseMDF(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var wSpecs []mdf.BranchSpec
	for i, w := range p.Inits {
		wSpecs = append(wSpecs, mdf.BranchSpec{Label: w.Name(), Hint: float64(i)})
	}
	type rm struct {
		lr, mom float64
	}
	var rmSpecs []mdf.BranchSpec
	var rms []rm
	i := 0
	for _, r := range p.LearningRates {
		for _, m := range p.Momenta {
			rmSpecs = append(rmSpecs, mdf.BranchSpec{
				Label: fmt.Sprintf("r=%g,m=%g", r, m),
				Hint:  float64(i),
			})
			rms = append(rms, rm{r, m})
			i++
		}
	}
	defaultLR := p.LearningRates[len(p.LearningRates)/2]
	defaultMom := p.Momenta[len(p.Momenta)/2]

	b := mdf.NewBuilder()
	src := b.Source("src", sourceFunc(p), 0.0005)
	pre := src.ThenWide("preprocess", preprocessOp(p), 0.04)
	chosenInit := pre.Explore("weights", wSpecs,
		mdf.NewChooser(AccuracyEvaluator(p), mdf.TopK(1)),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			w := p.Inits[int(spec.Hint)]
			n := start.Then("train("+spec.Label+")",
				trainOp(p, w, defaultLR, defaultMom, p.Seed+int64(spec.Hint)), 0)
			n.Op().FixedCost = p.trainCost()
			return n
		})
	out := chosenInit.Explore("hyperparams", rmSpecs,
		mdf.NewChooser(AccuracyEvaluator(p), mdf.TopK(1)),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			c := rms[int(spec.Hint)]
			n := start.Then("train("+spec.Label+")",
				continueTrainOp(p, c.lr, c.mom), 0)
			n.Op().FixedCost = p.trainCost()
			return n
		})
	out.Then("sink", mdf.Identity("model"), 0.0001)
	return b.Build()
}

// BuildWeightsOnlyMDF constructs the first Fig. 5 configuration: exploring
// only the initial weights W.
func BuildWeightsOnlyMDF(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var wSpecs []mdf.BranchSpec
	for i, w := range p.Inits {
		wSpecs = append(wSpecs, mdf.BranchSpec{Label: w.Name(), Hint: float64(i)})
	}
	defaultLR := p.LearningRates[len(p.LearningRates)/2]
	defaultMom := p.Momenta[len(p.Momenta)/2]
	b := mdf.NewBuilder()
	src := b.Source("src", sourceFunc(p), 0.0005)
	pre := src.ThenWide("preprocess", preprocessOp(p), 0.04)
	out := pre.Explore("weights", wSpecs,
		mdf.NewChooser(AccuracyEvaluator(p), mdf.TopK(1)),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			w := p.Inits[int(spec.Hint)]
			n := start.Then("train("+spec.Label+")",
				trainOp(p, w, defaultLR, defaultMom, p.Seed+int64(spec.Hint)), 0)
			n.Op().FixedCost = p.trainCost()
			return n
		})
	out.Then("sink", mdf.Identity("model"), 0.0001)
	return b.Build()
}

// BuildHyperOnlyMDF constructs the second Fig. 5 configuration: exploring
// only the hyper-parameters R × M with a fixed initialisation.
func BuildHyperOnlyMDF(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	type rm struct {
		lr, mom float64
	}
	var specs []mdf.BranchSpec
	var rms []rm
	i := 0
	for _, r := range p.LearningRates {
		for _, m := range p.Momenta {
			specs = append(specs, mdf.BranchSpec{
				Label: fmt.Sprintf("r=%g,m=%g", r, m),
				Hint:  float64(i),
			})
			rms = append(rms, rm{r, m})
			i++
		}
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("dnn: hyper-only MDF needs >= 2 combinations")
	}
	init := p.Inits[0]
	b := mdf.NewBuilder()
	src := b.Source("src", sourceFunc(p), 0.0005)
	pre := src.ThenWide("preprocess", preprocessOp(p), 0.04)
	out := pre.Explore("hyperparams", specs,
		mdf.NewChooser(AccuracyEvaluator(p), mdf.TopK(1)),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			c := rms[int(spec.Hint)]
			n := start.Then("train("+spec.Label+")",
				trainOp(p, init, c.lr, c.mom, p.Seed), 0)
			n.Op().FixedCost = p.trainCost()
			return n
		})
	out.Then("sink", mdf.Identity("model"), 0.0001)
	return b.Build()
}
