// KDE data profiling (the paper's running example, Fig. 3): explore kernel
// functions and bandwidths for a kernel density estimator over sensor data,
// and choose the configuration with the highest hold-out log likelihood —
// all as one MDF job instead of one job per configuration.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	mdf "metadataflow"
)

// kernel is a symmetric probability kernel.
type kernel struct {
	name string
	fn   func(u float64) float64
}

var kernels = []kernel{
	{"gaussian", func(u float64) float64 { return math.Exp(-0.5*u*u) / math.Sqrt(2*math.Pi) }},
	{"top-hat", func(u float64) float64 {
		if u < -1 || u > 1 {
			return 0
		}
		return 0.5
	}},
	{"linear", func(u float64) float64 {
		if u < -1 || u > 1 {
			return 0
		}
		return 1 - math.Abs(u)
	}},
}

var bandwidths = []float64{0.1, 0.3, 0.8}

func main() {
	// A bimodal sample: kernel and bandwidth choices genuinely matter.
	rng := rand.New(rand.NewSource(42))
	rows := make([]float64, 5000)
	for i := range rows {
		if rng.Float64() < 0.6 {
			rows[i] = rng.NormFloat64()
		} else {
			rows[i] = 4 + 0.5*rng.NormFloat64()
		}
	}
	input := mdf.FromSlice("sample", rows, 8, 8)
	// Account the input as an 8 GB dataset on the simulated cluster.
	input.SetVirtualBytes(8 << 30)
	holdout := make([]float64, 200)
	for i := range holdout {
		if rng.Float64() < 0.6 {
			holdout[i] = rng.NormFloat64()
		} else {
			holdout[i] = 4 + 0.5*rng.NormFloat64()
		}
	}

	var specs []mdf.BranchSpec
	type cfg struct {
		k kernel
		h float64
	}
	var cfgs []cfg
	for ki, k := range kernels {
		for bi, h := range bandwidths {
			specs = append(specs, mdf.BranchSpec{
				Label: fmt.Sprintf("%s h=%g", k.name, h),
				Hint:  float64(ki*len(bandwidths) + bi),
			})
			cfgs = append(cfgs, cfg{k, h})
		}
	}

	// Evaluator: mean log density of the hold-out points under the
	// branch's estimator (each branch outputs density values).
	eval := mdf.FuncEvaluator("holdout-loglik", func(d *mdf.Dataset) float64 {
		ll := 0.0
		n := 0
		for _, v := range mdf.Flatten[float64](d) {
			if v < 1e-12 {
				v = 1e-12
			}
			ll += math.Log(v)
			n++
		}
		return ll / float64(n)
	})

	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	best := src.Explore("kde-config", specs, mdf.NewChooser(eval, mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			c := cfgs[int(spec.Hint)]
			return start.Then("estimate("+spec.Label+")",
				mdf.WholeDataset("kde", func(in *mdf.Dataset) (*mdf.Dataset, error) {
					sample := mdf.Flatten[float64](in)
					// Predicted densities at the hold-out points.
					out := make([]float64, len(holdout))
					for i, x := range holdout {
						out[i] = density(c.k, c.h, sample[:500], x)
					}
					return mdf.FromSlice("densities", out, in.NumPartitions(), 8), nil
				}), 0.01)
		})
	best.Then("sink", mdf.Identity("profile"), 0)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := mdf.Run(g, mdf.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("explored %d kernel/bandwidth configurations in one MDF job\n", len(specs))
	fmt.Printf("completion time:   %.2f virtual seconds\n", res.CompletionTime())
	fmt.Printf("datasets discarded early: %d\n", res.Metrics.DatasetsDiscarded)

	// Compare with the separate-jobs workflow a Spark user would run.
	seq, err := mdf.RunSequential(g, mdf.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential jobs:   %.2f virtual seconds (%d jobs, %.0f%% slower)\n",
		seq.CompletionTime, seq.Jobs,
		100*(seq.CompletionTime-res.CompletionTime().Seconds())/res.CompletionTime().Seconds())
}

func density(k kernel, h float64, sample []float64, x float64) float64 {
	var sum float64
	for _, xi := range sample {
		sum += k.fn((x - xi) / h)
	}
	return sum / (float64(len(sample)) * h)
}
