// Cross validation as an MDF (§3.2): the explore operator splits the input
// into k folds, each branch trains on k-1 folds and validates on the held
// out fold, and the choose keeps the best-scoring model. The fold branches
// share the preprocessed input dataset, which the engine materialises once.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	mdf "metadataflow"
)

type sample struct {
	x, y float64
}

type fit struct {
	slope, intercept float64
	fold             int
}

const folds = 5

func main() {
	rng := rand.New(rand.NewSource(3))
	data := make([]mdf.Row, 2000)
	for i := range data {
		x := rng.Float64() * 10
		data[i] = sample{x: x, y: 3*x + 2 + rng.NormFloat64()}
	}
	input := mdf.FromRows("observations", data, 8, 16)
	input.SetVirtualBytes(1 << 28)

	// Evaluator: negative validation RMSE of the branch's fitted model
	// (higher is better, so Max selects the best fold split).
	rmse := mdf.FuncEvaluator("neg-rmse", func(d *mdf.Dataset) float64 {
		f := d.Rows()[0].(fit)
		var sum float64
		n := 0
		for i, r := range data {
			if i%folds != f.fold {
				continue
			}
			s := r.(sample)
			e := s.y - (f.slope*s.x + f.intercept)
			sum += e * e
			n++
		}
		return -math.Sqrt(sum / float64(n))
	})

	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	// CrossValidate builds the explore/choose scope of §3.2: one branch per
	// fold, all sharing the materialised input.
	best := src.CrossValidate(mdf.CrossValidationSpec{
		Name:      "cv",
		Folds:     folds,
		Train:     func(fold, folds int) mdf.TransformFunc { return trainFold(fold) },
		Evaluate:  rmse,
		CostPerMB: 0.02,
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
	m := res.Output.Rows()[0].(fit)
	fmt.Printf("%d-fold cross validation in one MDF job\n", folds)
	fmt.Printf("best fold: %d, model y = %.3f*x + %.3f (true: 3x + 2)\n", m.fold, m.slope, m.intercept)
	fmt.Printf("completion time: %.2f virtual seconds\n", res.CompletionTime())
	fmt.Printf("the shared input was materialised once and read by %d branches\n", folds)
}

// trainFold fits least squares on all samples outside the validation fold.
func trainFold(fold int) mdf.TransformFunc {
	return mdf.WholeDataset("train", func(in *mdf.Dataset) (*mdf.Dataset, error) {
		var sx, sy, sxx, sxy, n float64
		for i, r := range in.Rows() {
			if i%folds != fold {
				s := r.(sample)
				sx += s.x
				sy += s.y
				sxx += s.x * s.x
				sxy += s.x * s.y
				n++
			}
		}
		slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
		intercept := (sy - slope*sx) / n
		out := mdf.FromRows("model", []mdf.Row{fit{slope: slope, intercept: intercept, fold: fold}}, 1, 0)
		out.SetVirtualBytes(1 << 12)
		return out, nil
	})
}
