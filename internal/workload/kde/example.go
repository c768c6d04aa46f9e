package kde

import (
	"fmt"
	"math"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/stats"
)

// This file implements the paper's running example (Ex. 3.4, Figs. 3a/3b):
// an MDF with four branches combining outlier thresholds {1.5, 2} and
// kernel functions {gaussian, top-hat}; the choose computes the mean
// integrated squared error (MISE) of each branch's density profile and
// selects the minimum.

// ExampleParams configures the Ex. 3.4 MDF.
type ExampleParams struct {
	// Rows, Partitions, VirtualBytes and Seed configure the input.
	Rows         int
	Partitions   int
	VirtualBytes int64
	Seed         int64
	// OutlierThresholds and KernelNames define the explored combinations
	// (Fig. 3b: t = seq(1.5, 2), k = seq("gaussian", "top-hat")).
	OutlierThresholds []float64
	KernelNames       []string
	// Bandwidth is the fixed KDE bandwidth (Fig. 3b uses 0.2).
	Bandwidth float64
	// GridPoints is the resolution of the density profile each branch
	// produces and the MISE evaluator integrates over.
	GridPoints int
	// FitSample caps the estimator's sample size; it must be >= 1.
	FitSample int
}

// DefaultExample returns the Fig. 3 configuration at in-process scale.
func DefaultExample() ExampleParams {
	return ExampleParams{
		Rows:              20000,
		Partitions:        8,
		VirtualBytes:      4 << 30,
		Seed:              1,
		OutlierThresholds: []float64{1.5, 2.0},
		KernelNames:       []string{"gaussian", "top-hat"},
		Bandwidth:         0.2,
		GridPoints:        128,
		FitSample:         300,
	}
}

// Validate reports configuration errors.
func (p ExampleParams) Validate() error {
	if p.Rows < 100 || p.Partitions < 1 {
		return fmt.Errorf("kde: need >= 100 rows and >= 1 partition")
	}
	if len(p.OutlierThresholds)*len(p.KernelNames) < 2 {
		return fmt.Errorf("kde: example needs >= 2 branches")
	}
	if h := p.Bandwidth; !(h > 0) || math.IsInf(h, 1) {
		return fmt.Errorf("kde: bandwidth %g not positive and finite", h)
	}
	if p.GridPoints < 2 {
		return fmt.Errorf("kde: need >= 2 grid points")
	}
	if p.FitSample < 1 {
		return fmt.Errorf("kde: fit sample must be >= 1")
	}
	return nil
}

// gridPoint is one (x, density) sample of a branch's profile.
type gridPoint struct {
	X, Density float64
}

// MISEEvaluator scores a density profile by its mean integrated squared
// error against a reference density; lower is better, so it pairs with the
// Min selector (Ex. 3.4).
func MISEEvaluator(ref func(float64) float64) mdf.Evaluator {
	return mdf.Evaluator{
		Name: "mise",
		Fn: func(d *dataset.Dataset) float64 {
			grid := dataset.Flatten[gridPoint](d)
			if len(grid) < 2 {
				return math.Inf(1)
			}
			var sum float64
			for _, gp := range grid {
				diff := gp.Density - ref(gp.X)
				sum += diff * diff
			}
			step := (grid[len(grid)-1].X - grid[0].X) / float64(len(grid)-1)
			return sum * step
		},
		CostPerMB: 0.0005,
	}
}

// MixtureDensity returns the true density of the Generate mixture, the
// reference the MISE evaluator integrates against.
func MixtureDensity() func(float64) float64 {
	normal := func(x, mu, sigma float64) float64 {
		d := (x - mu) / sigma
		return math.Exp(-0.5*d*d) / (sigma * math.Sqrt(2*math.Pi))
	}
	return func(x float64) float64 {
		return 0.7*normal(x, 0, 1) + 0.3*normal(x, 3.5, 0.5)
	}
}

// profileOp emits the density profile of the filtered data over a fixed
// grid: kernel k's row of one density pass over at most FitSample of the
// data, taken by a stride.
func profileOp(p ExampleParams, k Kernel) graph.TransformFunc {
	const lo, hi = -4.0, 6.0
	var explored [kTriweight]bool
	explored[k.builtin-1] = true
	return mdf.WholeDataset(kdeName(k.Name, p.Bandwidth),
		func(in *dataset.Dataset) (*dataset.Dataset, error) {
			xs := dataset.Flatten[float64](in)
			if len(xs) > p.FitSample {
				stride := len(xs) / p.FitSample
				sampled := make([]float64, 0, (len(xs)+stride-1)/stride)
				for i := 0; i < len(xs); i += stride {
					sampled = append(sampled, xs[i])
				}
				xs = sampled
			}
			grid := make([]float64, p.GridPoints)
			step := (hi - lo) / float64(p.GridPoints-1)
			for i := range grid {
				grid[i] = lo + float64(i)*step
			}
			density := densityPass(xs, grid, p.Bandwidth, explored)[k.builtin-1]
			rows := make([]gridPoint, len(grid))
			for i, x := range grid {
				rows[i] = gridPoint{X: x, Density: density[i]}
			}
			parts := in.NumPartitions()
			if parts < 1 {
				parts = 1
			}
			out := dataset.FromSlice("profile", rows, parts, 16)
			out.SetVirtualBytes(in.VirtualBytes() / 100)
			return out, nil
		})
}

// BuildExampleMDF constructs the Fig. 3a MDF: a flat explore over every
// (outlier threshold, kernel) combination, choosing the branch with the
// lowest MISE.
func BuildExampleMDF(p ExampleParams) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base := Defaults()
	base.Rows = p.Rows
	base.Partitions = p.Partitions
	base.VirtualBytes = p.VirtualBytes
	base.Seed = p.Seed
	input := Generate(base)
	xs := dataset.Flatten[float64](input)
	mean, std := stats.Mean(xs), stats.StdDev(xs)

	type combo struct {
		o float64
		k Kernel
	}
	var specs []mdf.BranchSpec
	var combos []combo
	i := 0
	for _, o := range p.OutlierThresholds {
		for _, name := range p.KernelNames {
			k, err := KernelByName(name)
			if err != nil {
				return nil, err
			}
			specs = append(specs, mdf.BranchSpec{
				Label: outlierLabel(o, name),
				Hint:  float64(i),
			})
			combos = append(combos, combo{o, k})
			i++
		}
	}

	chooser := mdf.NewChooser(MISEEvaluator(MixtureDensity()), mdf.Min())
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.0002)
	out := src.Explore("config", specs, chooser,
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			c := combos[int(spec.Hint)]
			filtered := start.Then("outlier(o="+spec.Label+")",
				mdf.Filter("inliers", func(x float64) bool {
					return math.Abs(x-mean) <= c.o*std
				}), 0.002)
			return filtered.Then("estimate("+spec.Label+")", profileOp(p, c.k), 0.006)
		})
	out.Then("sink", mdf.Identity("results"), 0.0001)
	return b.Build()
}
