// Quickstart: express an exploratory workflow as a single meta-dataflow.
//
// The job filters a numeric dataset with three candidate outlier thresholds
// (the explorable), scores each branch by how much data survives, and keeps
// the first branch that retains at least 80% of the input — at which point
// the remaining branches are pruned without ever executing.
package main

import (
	"fmt"
	"log"
	"math"

	mdf "metadataflow"
)

func main() {
	// Input: 10,000 noisy measurements around 100, with a few outliers.
	rows := make([]float64, 10000)
	for i := range rows {
		v := 100 + 5*math.Sin(float64(i)/10) + float64(i%7)
		if i%500 == 0 {
			v += 80 // outlier
		}
		rows[i] = v
	}
	input := mdf.FromSlice("sensor", rows, 8, 64)
	// Account the input as a 4 GB dataset on the simulated cluster.
	input.SetVirtualBytes(4 << 30)

	mean, std := summarize(rows)

	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)

	// Explore three outlier thresholds; keep the first branch retaining
	// >= 80% of the rows. The evaluator is monotone in the threshold, so
	// with sorted scheduling the engine can stop early.
	thresholds := []mdf.BranchSpec{
		{Label: "3.0x std", Hint: 3.0},
		{Label: "2.0x std", Hint: 2.0},
		{Label: "1.0x std", Hint: 1.0},
	}
	eval := mdf.RatioEvaluator(len(rows))
	eval.Monotone = true
	chooser := mdf.NewChooser(eval, mdf.KThreshold(1, 0.8, false))

	filtered := src.Explore("outlier-threshold", thresholds, chooser,
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			k := spec.Hint
			return start.Then("filter("+spec.Label+")",
				mdf.Filter("inliers", func(v float64) bool {
					return math.Abs(v-mean) <= k*std
				}), 0.002)
		})
	filtered.Then("sink", mdf.Identity("result"), 0)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := mdf.Run(g, mdf.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("kept %d of %d rows\n", res.Output.NumRows(), len(rows))
	fmt.Printf("completion time:    %.2f virtual seconds\n", res.CompletionTime())
	fmt.Printf("branches pruned:    %d (never executed)\n", res.Metrics.BranchesPruned)
	fmt.Printf("choose evaluations: %d of %d branches\n", res.Metrics.ChooseEvals, len(thresholds))
}

func summarize(rows []float64) (mean, std float64) {
	for _, v := range rows {
		mean += v
	}
	mean /= float64(len(rows))
	for _, v := range rows {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(rows)))
	return mean, std
}
