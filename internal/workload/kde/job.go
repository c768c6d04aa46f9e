package kde

import (
	"fmt"
	"math"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/stats"
)

// Params configures the data profiling MDF (§6, workload 3).
type Params struct {
	// Rows is the number of samples generated (the paper uses 100 M
	// normally distributed values; the accounted size is independent).
	Rows int
	// Partitions is the dataset partition count.
	Partitions int
	// VirtualBytes is the accounted input size.
	VirtualBytes int64
	// Bandwidths is the explored bandwidth set B (default {0.1, 0.2, 0.3}).
	Bandwidths []float64
	// KernelNames restricts the explored kernels (default: all).
	KernelNames []string
	// HoldoutFraction is the hold-out sample used by the evaluator
	// (the paper uses 1%).
	HoldoutFraction float64
	// FitSample caps the number of samples the estimator keeps, so that
	// density evaluation stays tractable in-process; the virtual compute
	// cost is still charged for the full accounted size.
	FitSample int
	// Seed drives the generator.
	Seed int64
}

// Defaults returns the paper's configuration at in-process scale.
func Defaults() Params {
	return Params{
		Rows:            20000,
		Partitions:      8,
		VirtualBytes:    8 << 30,
		Bandwidths:      []float64{0.1, 0.2, 0.3},
		HoldoutFraction: 0.01,
		FitSample:       400,
		Seed:            1,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Rows < 100 || p.Partitions < 1 {
		return fmt.Errorf("kde: need >= 100 rows and >= 1 partition")
	}
	if len(p.Bandwidths) == 0 {
		return fmt.Errorf("kde: no bandwidths to explore")
	}
	for _, h := range p.Bandwidths {
		if h <= 0 {
			return fmt.Errorf("kde: non-positive bandwidth %g", h)
		}
	}
	if p.HoldoutFraction <= 0 || p.HoldoutFraction >= 0.5 {
		return fmt.Errorf("kde: holdout fraction %g out of (0, 0.5)", p.HoldoutFraction)
	}
	if p.FitSample < 10 {
		return fmt.Errorf("kde: fit sample too small")
	}
	return nil
}

func (p Params) kernels() ([]Kernel, error) {
	if len(p.KernelNames) == 0 {
		return Kernels(), nil
	}
	var out []Kernel
	for _, n := range p.KernelNames {
		k, err := KernelByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Generate produces sensor-style measurements: a two-component Gaussian
// mixture, so that kernel and bandwidth choices genuinely change the
// hold-out likelihood.
func Generate(p Params) *dataset.Dataset {
	rng := stats.NewRNG(p.Seed)
	rows := make([]float64, p.Rows)
	for i := range rows {
		if rng.Float64() < 0.7 {
			rows[i] = rng.Normal(0, 1)
		} else {
			rows[i] = rng.Normal(3.5, 0.5)
		}
	}
	d := dataset.FromSlice("sensor", rows, p.Partitions, 8)
	d.SetVirtualBytes(p.VirtualBytes)
	return d
}

// normalize rescales values to [0, 1] (min-max normalisation).
func normalize(ins []*dataset.Dataset) (*dataset.Dataset, error) {
	xs := dataset.Flatten[float64](ins[0])
	if len(xs) == 0 {
		return nil, fmt.Errorf("kde: empty input")
	}
	lo, hi := stats.MinMax(xs)
	span := hi - lo
	if span == 0 {
		span = 1
	}
	return mdf.Map("normalized", 1.0, func(x float64) float64 {
		return (x - lo) / span
	})(ins)
}

// standardize rescales values to zero mean and unit variance.
func standardize(ins []*dataset.Dataset) (*dataset.Dataset, error) {
	xs := dataset.Flatten[float64](ins[0])
	if len(xs) == 0 {
		return nil, fmt.Errorf("kde: empty input")
	}
	mean := stats.Mean(xs)
	std := stats.StdDev(xs)
	if std == 0 {
		std = 1
	}
	return mdf.Map("standardized", 1.0, func(x float64) float64 {
		return (x - mean) / std
	})(ins)
}

// estimateOp fits the estimator on a subsample and outputs the predicted
// densities at the hold-out points (one row per hold-out point). The output
// is small relative to the input, as a density profile is.
func estimateOp(p Params, k Kernel, h float64) graph.TransformFunc {
	return mdf.WholeDataset(fmt.Sprintf("kde(%s,h=%g)", k.Name, h),
		func(in *dataset.Dataset) (*dataset.Dataset, error) {
			xs := dataset.Flatten[float64](in)
			nHold := int(float64(len(xs)) * p.HoldoutFraction)
			if nHold < 1 {
				nHold = 1
			}
			holdout, train := xs[:nHold], xs[nHold:]
			if len(train) > p.FitSample {
				stride := len(train) / p.FitSample
				sampled := make([]float64, 0, p.FitSample)
				for i := 0; i < len(train); i += stride {
					sampled = append(sampled, train[i])
				}
				train = sampled
			}
			est := NewEstimator(k, h, train)
			rows := make([]float64, len(holdout))
			for i, x := range holdout {
				rows[i] = est.Density(x)
			}
			parts := in.NumPartitions()
			if parts < 1 {
				parts = 1
			}
			out := dataset.FromSlice("densities", rows, parts, 8)
			out.SetVirtualBytes(in.VirtualBytes() / 50)
			return out, nil
		})
}

// LogLikelihoodEvaluator scores a branch by the mean log of the predicted
// hold-out densities (§6: "computes the log likelihood of the probability
// density function values of the hold-out samples").
func LogLikelihoodEvaluator() mdf.Evaluator {
	return mdf.Evaluator{
		Name: "holdout-loglik",
		Fn: func(d *dataset.Dataset) float64 {
			const floor = 1e-12
			var ll float64
			n := 0
			for _, part := range d.Parts {
				for _, v := range dataset.Values[float64](part) {
					if v < floor {
						v = floor
					}
					ll += math.Log(v)
					n++
				}
			}
			if n == 0 {
				return math.Inf(-1)
			}
			return ll / float64(n)
		},
		CostPerMB: 0.0008,
	}
}

// BuildMDF constructs the data profiling MDF of §6: an outer explore over
// the pre-processing method N = {normalise, standardise}, a nested explore
// over kernel × bandwidth, and hold-out log-likelihood maximisation.
func BuildMDF(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	kernels, err := p.kernels()
	if err != nil {
		return nil, err
	}
	input := Generate(p)

	var kbSpecs []mdf.BranchSpec
	type kb struct {
		k Kernel
		h float64
	}
	var kbs []kb
	for ki, k := range kernels {
		for bi, h := range p.Bandwidths {
			kbSpecs = append(kbSpecs, mdf.BranchSpec{
				Label: fmt.Sprintf("%s,h=%g", k.Name, h),
				Hint:  float64(ki*len(p.Bandwidths) + bi),
			})
			kbs = append(kbs, kb{k, h})
		}
	}

	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.0002)
	preSpecs := []mdf.BranchSpec{
		{Label: "normalize", Hint: 0},
		{Label: "standardize", Hint: 1},
	}
	out := src.Explore("preprocess", preSpecs,
		mdf.NewChooser(LogLikelihoodEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			var prep graph.TransformFunc
			if spec.Label == "normalize" {
				prep = normalize
			} else {
				prep = standardize
			}
			pre := start.ThenWide(spec.Label, prep, 0.003)
			return pre.Explore("kde", kbSpecs,
				mdf.NewChooser(LogLikelihoodEvaluator(), mdf.Max()),
				func(inner *mdf.Node, ispec mdf.BranchSpec) *mdf.Node {
					cfg := kbs[int(ispec.Hint)]
					return inner.Then("kde("+ispec.Label+")",
						estimateOp(p, cfg.k, cfg.h), 0.006)
				})
		})
	out.Then("sink", mdf.Identity("profile"), 0.0001)
	return b.Build()
}

// ScopedParams configures the scoped KDE MDF of Fig. 3c.
type ScopedParams struct {
	Params
	// OutlierThresholds is the explored set of standard-deviation
	// multipliers for the outlier filter (Fig. 3a uses {1.5, 2}).
	OutlierThresholds []float64
	// MaxRemovedFraction bounds how much data the outlier filter may
	// remove (Ex. 3.5 uses 20%).
	MaxRemovedFraction float64
}

// DefaultScoped returns the Fig. 3c configuration.
func DefaultScoped() ScopedParams {
	return ScopedParams{
		Params:             Defaults(),
		OutlierThresholds:  []float64{1.5, 2.0},
		MaxRemovedFraction: 0.2,
	}
}

// BuildScopedMDF constructs the Fig. 3c variant: an explore over outlier
// thresholds closed early by a choose that keeps only datasets retaining at
// least 1 - MaxRemovedFraction of the input, followed by an explore over
// kernels and bandwidths choosing the best estimator.
func BuildScopedMDF(p ScopedParams) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.OutlierThresholds) < 2 {
		return nil, fmt.Errorf("kde: scoped MDF needs >= 2 outlier thresholds")
	}
	kernels, err := p.kernels()
	if err != nil {
		return nil, err
	}
	input := Generate(p.Params)
	xs := dataset.Flatten[float64](input)
	mean, std := stats.Mean(xs), stats.StdDev(xs)

	var outlierSpecs []mdf.BranchSpec
	for _, o := range p.OutlierThresholds {
		outlierSpecs = append(outlierSpecs, mdf.BranchSpec{
			Label: fmt.Sprintf("o=%g", o), Hint: o,
		})
	}
	var kbSpecs []mdf.BranchSpec
	type kb struct {
		k Kernel
		h float64
	}
	var kbs []kb
	for ki, k := range kernels {
		for bi, h := range p.Bandwidths {
			kbSpecs = append(kbSpecs, mdf.BranchSpec{
				Label: fmt.Sprintf("%s,h=%g", k.Name, h),
				Hint:  float64(ki*len(p.Bandwidths) + bi),
			})
			kbs = append(kbs, kb{k, h})
		}
	}

	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.0002)
	// Scope 1: outlier filtering, closed early by a size-ratio choose
	// (Ex. 3.5). The evaluator is monotone over the ordered thresholds.
	ratioEval := mdf.Evaluator{
		Name:     "kept-ratio",
		Monotone: true,
		Fn: func(d *dataset.Dataset) float64 {
			return float64(d.NumRows()) / float64(p.Rows)
		},
		CostPerMB: 0.0002,
	}
	filtered := src.Explore("outliers", outlierSpecs,
		mdf.NewChooser(ratioEval, mdf.KThreshold(1, 1-p.MaxRemovedFraction, false)),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			o := spec.Hint
			return start.Then("outlier<"+spec.Label,
				mdf.Filter("inliers", func(x float64) bool {
					return math.Abs(x-mean) <= o*std
				}), 0.002)
		})
	// Scope 2: kernel/bandwidth exploration over the surviving dataset.
	out := filtered.Explore("kde", kbSpecs,
		mdf.NewChooser(LogLikelihoodEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			cfg := kbs[int(spec.Hint)]
			return start.Then("kde("+spec.Label+")",
				estimateOp(p.Params, cfg.k, cfg.h), 0.006)
		})
	out.Then("sink", mdf.Identity("profile"), 0.0001)
	return b.Build()
}
