package kde

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/stats"
	"metadataflow/internal/vecmath"
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
		if !(h > 0) || math.IsInf(h, 1) {
			return fmt.Errorf("kde: bandwidth %g not positive and finite", h)
		}
	}
	if !(p.HoldoutFraction > 0 && p.HoldoutFraction < 0.5) {
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

// kdeName names an estimator after its kernel and bandwidth, as
// "kde(%s,h=%g)" would (strconv's shortest 'g' form is what %g prints), in
// one allocation. A branch's label is the setting between the parentheses
// (mdf.Setting), a substring of the name.
func kdeName(kernel string, h float64) string {
	var buf [48]byte
	b := append(append(append(buf[:0], "kde("...), kernel...), ",h="...)
	return string(append(strconv.AppendFloat(b, h, 'g', -1, 64), ')'))
}

// outlierLabel labels an outlier threshold o, "o=%g", followed by ",kernel"
// when kernel is not empty.
func outlierLabel(o float64, kernel string) string {
	var buf [40]byte
	b := strconv.AppendFloat(append(buf[:0], "o="...), o, 'g', -1, 64)
	if kernel != "" {
		b = append(append(b, ','), kernel...)
	}
	return string(b)
}

// fit is the split and fit sample the estimate branches over one input
// share, through one mdf.Memo per graph keyed by the input's pre-processing
// branch: they depend on nothing but the input and the graph's Params, so
// every kernel and bandwidth over one input reads one fit. None of its slices
// is ever written once made.
type fit struct {
	holdout, train []float64
}

// newFit splits xs into the hold-out points, its first HoldoutFraction, and
// the rest, which it thins to at most FitSample by a stride.
func newFit(p Params, xs []float64) fit {
	nHold := int(float64(len(xs)) * p.HoldoutFraction)
	if nHold < 1 {
		nHold = 1
	}
	holdout, train := xs[:nHold], xs[nHold:]
	if len(train) > p.FitSample {
		stride := len(train) / p.FitSample
		sampled := make([]float64, 0, (len(train)+stride-1)/stride)
		for i := 0; i < len(train); i += stride {
			sampled = append(sampled, train[i])
		}
		train = sampled
	}
	return fit{holdout: holdout, train: train}
}

// fitMemo returns the memo of one graph's fits, keyed by pre-processing
// branch.
func fitMemo(p Params) *mdf.Memo[float64, float64, fit] {
	return mdf.NewMemo(func(_ float64, xs []float64) fit { return newFit(p, xs) })
}

// densityKey names one density pass: the fit of a pre-processing branch
// (the fits memo's key) at one bandwidth, by its bits.
type densityKey struct {
	pre float64
	h   uint64
}

// densities holds every explored kernel's density at a set of points (a
// fit's hold-out points, or a profile's grid), one row per built-in kernel
// (index builtin-1), nil for a kernel not explored. The estimates of one
// pre-processing branch and bandwidth share it through one mdf.Memo per
// graph, each reading its own kernel's row; nobody writes a row once made.
type densities [kTriweight][]float64

// densityMemo returns the memo of one graph's density passes over the fits
// in fits, for the kernels it explores.
func densityMemo(fits *mdf.Memo[float64, float64, fit], kernels []Kernel) *mdf.Memo[densityKey, float64, densities] {
	var explored [kTriweight]bool
	for _, k := range kernels {
		explored[k.builtin-1] = true
	}
	return mdf.NewMemo(func(key densityKey, xs []float64) densities {
		f := fits.Get(key.pre, xs)
		return densityPass(f.train, f.holdout, math.Float64frombits(key.h), explored)
	})
}

// densityPass returns, for each explored kernel, its estimate over the
// samples at every point x, g(x) = Σ Fn((x-xᵢ)/h) / (n·h), 0 when there are
// no samples: bit for bit the loop that adds the terms in sample order, in
// one pass per point over the samples. It computes u = (x-xᵢ)/h once per
// sample (vecmath.URow) and sums the Gaussian over every sample, its
// exponentials one vecmath.ExpRow per block (gaussianExps); the bounded
// kernels are +0 outside their support, and a sum of terms that are never
// negative, begun at +0, is never -0, so their sums add only the u inside
// it, in ascending index, six chains side by side (a NaN u is inside, as
// outside says, and turns each sum NaN as the full loop would), the
// cosine's terms from vecmath.CosineRow. The samples go through in blocks
// of passBlock, whose u and kernel rows sit on the stack: the Gaussian's
// exponentials, then the cosine's terms, share one row, which the cosine
// writes only after the Gaussian is summed. The sums run on across blocks,
// so each adds the same terms in the same order.
func densityPass(samples, points []float64, h float64, explored [kTriweight]bool) densities {
	var out densities
	rows := 0
	for _, e := range explored {
		if e {
			rows++
		}
	}
	buf := make([]float64, rows*len(points))
	for b, e := range explored {
		if e {
			out[b], buf = buf[:len(points):len(points)], buf[len(points):]
		}
	}
	if len(samples) == 0 {
		return out
	}
	bounded := slices.Contains(explored[kTopHat-1:], true)
	var ub, cb [passBlock]float64
	norm := float64(len(samples)) * h
	for i, x := range points {
		var gauss, top, lin, cos, epa, biw, triw float64
		for lo := 0; lo < len(samples); lo += passBlock {
			u := ub[:min(passBlock, len(samples)-lo)]
			vecmath.URow(u, samples[lo:lo+len(u)], x, h)
			if explored[kGaussian-1] {
				e := cb[:len(u)]
				gaussianExps(e, u)
				for _, v := range e {
					gauss += v / math.Sqrt(2*math.Pi)
				}
			}
			if !bounded {
				continue
			}
			// The u inside the support, compacted in place without a
			// branch: |v| > 1 is outside(v), NaN included.
			n := 0
			for _, v := range u {
				u[n] = v
				if !(math.Abs(v) > 1) {
					n++
				}
			}
			in, c := u[:n], cb[:n]
			if explored[kCosine-1] {
				vecmath.CosineRow(c, in)
			}
			for j, v := range in {
				t := 1 - v*v
				top += 0.5
				lin += 1 - math.Abs(v)
				cos += c[j]
				epa += 0.75 * t
				biw += 15.0 / 16.0 * t * t
				triw += 35.0 / 32.0 * t * t * t
			}
		}
		out.set(kGaussian, i, gauss/norm)
		out.set(kTopHat, i, top/norm)
		out.set(kLinear, i, lin/norm)
		out.set(kCosine, i, cos/norm)
		out.set(kEpanechnikov, i, epa/norm)
		out.set(kBiweight, i, biw/norm)
		out.set(kTriweight, i, triw/norm)
	}
	return out
}

// passBlock is how many samples densityPass takes at a time.
const passBlock = 512

// set stores v as the density of built-in kernel k at point i,
// unless k is not explored.
func (d *densities) set(k, i int, v float64) {
	if r := d[k-1]; r != nil {
		r[i] = v
	}
}

// estimateOp outputs the predicted densities of kernel k at bandwidth h at
// the hold-out points (one row per hold-out point): its row of the density
// pass of the input's pre-processing branch pre at h, read from dens and
// shared with the pass's other estimates, read-only and not copied. The
// output is small relative to the input, as a density profile is. name is
// kdeName(k.Name, h).
func estimateOp(dens *mdf.Memo[densityKey, float64, densities], pre float64, k Kernel, h float64, name string) graph.TransformFunc {
	key := densityKey{pre: pre, h: math.Float64bits(h)}
	return mdf.WholeDataset(name,
		func(in *dataset.Dataset) (*dataset.Dataset, error) {
			xs := dataset.Flatten[float64](in)
			if len(xs) == 0 {
				return nil, fmt.Errorf("kde: empty input")
			}
			rows := dens.Get(key, xs)[k.builtin-1]
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
			for i := range d.Parts {
				for _, v := range dataset.Values[float64](&d.Parts[i]) {
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

// kernelBranch is one branch of a kernel × bandwidth scope: its setting and
// the name of its estimator.
type kernelBranch struct {
	k    Kernel
	h    float64
	name string
}

// kernelBranches returns the branches of a kernel × bandwidth scope, hinted
// by position, each labelled with the setting its estimator's name spells
// out.
func kernelBranches(kernels []Kernel, bandwidths []float64) ([]mdf.BranchSpec, []kernelBranch) {
	specs := make([]mdf.BranchSpec, 0, len(kernels)*len(bandwidths))
	kbs := make([]kernelBranch, 0, len(kernels)*len(bandwidths))
	for ki, k := range kernels {
		for bi, h := range bandwidths {
			name := kdeName(k.Name, h)
			specs = append(specs, mdf.BranchSpec{Label: mdf.Setting(name), Hint: float64(ki*len(bandwidths) + bi)})
			kbs = append(kbs, kernelBranch{k, h, name})
		}
	}
	return specs, kbs
}

// BuildMDF constructs the data profiling MDF of §6: an outer explore over
// the pre-processing method N = {normalise, standardise}, a nested explore
// over kernel × bandwidth, and hold-out log-likelihood maximisation.
func BuildMDF(p Params) (*graph.Graph, error) {
	return buildMDF(p, fitMemo(p))
}

// buildMDF builds the MDF over the graph's memo of fits, and makes its memo
// of density passes.
func buildMDF(p Params, fits *mdf.Memo[float64, float64, fit]) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	kernels, err := p.kernels()
	if err != nil {
		return nil, err
	}
	input := Generate(p)

	// The kernel scope's names and labels, built once for both
	// pre-processing branches.
	kbSpecs, kbs := kernelBranches(kernels, p.Bandwidths)
	dens := densityMemo(fits, kernels)

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
					return inner.Then(cfg.name, estimateOp(dens, spec.Hint, cfg.k, cfg.h, cfg.name), 0.006)
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
			Label: outlierLabel(o, ""), Hint: o,
		})
	}
	kbSpecs, kbs := kernelBranches(kernels, p.Bandwidths)

	dens := densityMemo(fitMemo(p.Params), kernels)
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
			// One input reaches every estimate: the outlier choose keeps one
			// dataset.
			return start.Then(cfg.name, estimateOp(dens, 0, cfg.k, cfg.h, cfg.name), 0.006)
		})
	out.Then("sink", mdf.Identity("profile"), 0.0001)
	return b.Build()
}
