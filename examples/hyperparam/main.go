// Hyper-parameter search with early choose (§6 workload 1): train a simple
// classifier while exploring learning rates and regularisation in two
// sequential exploration scopes — first pick the best learning rate, then
// explore regularisation starting from the chosen model. The explored path
// count drops from |R × L| to |R| + |L| (the Fig. 5 "early choose" effect).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	mdf "metadataflow"
)

type example struct {
	x []float64
	y float64 // ±1
}

type model struct {
	w  []float64
	lr float64
}

func main() {
	rng := rand.New(rand.NewSource(11))
	train := genData(rng, 600)
	val := genData(rng, 200)

	input := mdf.FromSlice("train", [][]example{train}, 1, 0)
	input.SetVirtualBytes(1 << 28)

	accuracy := mdf.FuncEvaluator("val-accuracy", func(d *mdf.Dataset) float64 {
		return evaluate(mdf.Flatten[*model](d)[0], val)
	})

	rates := []mdf.BranchSpec{
		{Label: "lr=0.001", Hint: 0.001},
		{Label: "lr=0.01", Hint: 0.01},
		{Label: "lr=0.1", Hint: 0.1},
		{Label: "lr=0.5", Hint: 0.5},
	}
	regs := []mdf.BranchSpec{
		{Label: "l2=0", Hint: 0},
		{Label: "l2=0.0001", Hint: 0.0001},
		{Label: "l2=0.001", Hint: 0.001},
		{Label: "l2=0.01", Hint: 0.01},
	}

	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	// Scope 1: pick the best learning rate with no regularisation.
	bestLR := src.Explore("learning-rate", rates, mdf.NewChooser(accuracy, mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			lr := spec.Hint
			n := start.Then("train("+spec.Label+")", trainOp(lr, 0), 0)
			n.Op().FixedCost = 30 // virtual seconds per training run
			return n
		})
	// Scope 2: explore regularisation continuing from the chosen model.
	best := bestLR.Explore("regularisation", regs, mdf.NewChooser(accuracy, mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			l2 := spec.Hint
			n := start.Then("retrain("+spec.Label+")", retrainOp(train, l2), 0)
			n.Op().FixedCost = 30
			return n
		})
	best.Then("sink", mdf.Identity("model"), 0)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := mdf.Run(g, mdf.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	m := mdf.Flatten[*model](res.Output)[0]
	fmt.Printf("explored %d + %d configurations (instead of %d exhaustive)\n",
		len(rates), len(regs), len(rates)*len(regs))
	fmt.Printf("best model: lr=%g, validation accuracy %.1f%%\n", m.lr, 100*evaluate(m, val))
	fmt.Printf("completion time: %.2f virtual seconds\n", res.CompletionTime())
}

func genData(rng *rand.Rand, n int) []example {
	out := make([]example, n)
	for i := range out {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), 1}
		y := 1.0
		if 0.8*x[0]-0.5*x[1]+0.1+0.3*rng.NormFloat64() < 0 {
			y = -1
		}
		out[i] = example{x: x, y: y}
	}
	return out
}

// trainOp fits a logistic model from scratch at the given rate.
func trainOp(lr, l2 float64) mdf.TransformFunc {
	return mdf.WholeDataset("train", func(in *mdf.Dataset) (*mdf.Dataset, error) {
		train := mdf.Flatten[[]example](in)[0]
		m := &model{w: make([]float64, 3), lr: lr}
		fit(m, train, lr, l2, 5)
		out := mdf.FromSlice("model", []*model{m}, 1, 0)
		out.SetVirtualBytes(1 << 16)
		return out, nil
	})
}

// retrainOp continues from a chosen model with regularisation.
func retrainOp(train []example, l2 float64) mdf.TransformFunc {
	return mdf.WholeDataset("retrain", func(in *mdf.Dataset) (*mdf.Dataset, error) {
		base := mdf.Flatten[*model](in)[0]
		m := &model{w: append([]float64(nil), base.w...), lr: base.lr}
		fit(m, train, base.lr, l2, 5)
		out := mdf.FromSlice("model", []*model{m}, 1, 0)
		out.SetVirtualBytes(1 << 16)
		return out, nil
	})
}

func fit(m *model, data []example, lr, l2 float64, epochs int) {
	for e := 0; e < epochs; e++ {
		for _, ex := range data {
			var z float64
			for i, xi := range ex.x {
				z += m.w[i] * xi
			}
			g := -ex.y / (1 + math.Exp(ex.y*z))
			for i, xi := range ex.x {
				m.w[i] -= lr * (g*xi + l2*m.w[i])
			}
		}
	}
}

func evaluate(m *model, data []example) float64 {
	correct := 0
	for _, ex := range data {
		var z float64
		for i, xi := range ex.x {
			z += m.w[i] * xi
		}
		if (z >= 0) == (ex.y > 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}
