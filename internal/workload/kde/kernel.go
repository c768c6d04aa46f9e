// Package kde implements the data profiling workload of §2.2 and §6: kernel
// density estimation over sensor-style measurements, with explorable data
// pre-processing (normalisation vs. standardisation), kernel functions and
// bandwidths, scored by the hold-out log likelihood (§6) or the mean
// integrated squared error (Ex. 3.4).
package kde

import (
	"fmt"
	"math"
	"sort"
)

// Kernel is a symmetric probability kernel K(u) with support on [-1, 1]
// (except the Gaussian, which has unbounded support).
type Kernel struct {
	// Name identifies the kernel (the explorable's label).
	Name string
	// Fn evaluates K(u). To estimate with a function of one's own, build a
	// Kernel around it; overwriting the Fn of a kernel that Kernels returned
	// leaves builtin naming the old one.
	Fn func(u float64) float64
	// builtin says which of the functions below Fn is, so that Density can
	// call it directly; zero in a kernel built elsewhere.
	builtin int
}

// The built-in kernels, in the order of Kernels.
const (
	kGaussian = iota + 1
	kTopHat
	kLinear
	kCosine
	kEpanechnikov
	kBiweight
	kTriweight
)

// outside reports whether u lies outside the support [-1, 1] of the bounded
// kernels. A NaN is not outside.
func outside(u float64) bool { return u < -1 || u > 1 }

func gaussian(u float64) float64 {
	return math.Exp(-0.5*u*u) / math.Sqrt(2*math.Pi)
}

func topHat(u float64) float64 {
	if outside(u) {
		return 0
	}
	return 0.5
}

func linear(u float64) float64 {
	if outside(u) {
		return 0
	}
	return 1 - math.Abs(u)
}

func cosine(u float64) float64 {
	if outside(u) {
		return 0
	}
	return math.Pi / 4 * math.Cos(math.Pi/2*u)
}

func epanechnikov(u float64) float64 {
	if outside(u) {
		return 0
	}
	return 0.75 * (1 - u*u)
}

func biweight(u float64) float64 {
	if outside(u) {
		return 0
	}
	t := 1 - u*u
	return 15.0 / 16.0 * t * t
}

func triweight(u float64) float64 {
	if outside(u) {
		return 0
	}
	t := 1 - u*u
	return 35.0 / 32.0 * t * t * t
}

// Kernels returns the kernel set explored by the data profiling job:
// gaussian, top-hat, linear, cosine, epanechnikov, biweight, triweight.
func Kernels() []Kernel {
	return []Kernel{
		{Name: "gaussian", Fn: gaussian, builtin: kGaussian},
		{Name: "top-hat", Fn: topHat, builtin: kTopHat},
		{Name: "linear", Fn: linear, builtin: kLinear},
		{Name: "cosine", Fn: cosine, builtin: kCosine},
		{Name: "epanechnikov", Fn: epanechnikov, builtin: kEpanechnikov},
		{Name: "biweight", Fn: biweight, builtin: kBiweight},
		{Name: "triweight", Fn: triweight, builtin: kTriweight},
	}
}

// KernelByName returns the named kernel.
func KernelByName(name string) (Kernel, error) {
	for _, k := range Kernels() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("kde: unknown kernel %q", name)
}

// Estimator is a fitted kernel density estimator
// g(x) = 1/(n·h) Σ K((x - x_i)/h) (§2.2).
type Estimator struct {
	Kernel    Kernel
	Bandwidth float64
	Samples   []float64
}

// NewEstimator fits an estimator on the samples; it panics on non-positive
// bandwidth.
func NewEstimator(k Kernel, bandwidth float64, samples []float64) *Estimator {
	if bandwidth <= 0 {
		panic("kde: bandwidth must be positive")
	}
	return &Estimator{Kernel: k, Bandwidth: bandwidth, Samples: samples}
}

// Density evaluates g(x).
func (e *Estimator) Density(x float64) float64 {
	if len(e.Samples) == 0 {
		return 0
	}
	// One call of kernelSum per built-in kernel: inlined here with the kernel
	// a constant, its loop calls no function value. The sum is the same
	// Σ Fn((x-xᵢ)/h), in the same order.
	var sum float64
	switch e.Kernel.builtin {
	case kGaussian:
		sum = kernelSum(gaussian, x, e.Bandwidth, e.Samples)
	case kTopHat:
		sum = kernelSum(topHat, x, e.Bandwidth, e.Samples)
	case kLinear:
		sum = kernelSum(linear, x, e.Bandwidth, e.Samples)
	case kCosine:
		sum = kernelSum(cosine, x, e.Bandwidth, e.Samples)
	case kEpanechnikov:
		sum = kernelSum(epanechnikov, x, e.Bandwidth, e.Samples)
	case kBiweight:
		sum = kernelSum(biweight, x, e.Bandwidth, e.Samples)
	case kTriweight:
		sum = kernelSum(triweight, x, e.Bandwidth, e.Samples)
	default:
		sum = kernelSum(e.Kernel.Fn, x, e.Bandwidth, e.Samples)
	}
	return sum / (float64(len(e.Samples)) * e.Bandwidth)
}

// kernelSum returns Σ k((x-xᵢ)/h) over the samples.
func kernelSum(k func(float64) float64, x, h float64, samples []float64) float64 {
	var sum float64
	for _, xi := range samples {
		sum += k((x - xi) / h)
	}
	return sum
}

// LogLikelihood returns the mean log density over the hold-out points, the
// score the profiling job maximises (§6). Zero densities are floored to
// avoid -Inf.
func (e *Estimator) LogLikelihood(holdout []float64) float64 {
	if len(holdout) == 0 {
		return 0
	}
	const floor = 1e-12
	var ll float64
	for _, x := range holdout {
		d := e.Density(x)
		if d < floor {
			d = floor
		}
		ll += math.Log(d)
	}
	return ll / float64(len(holdout))
}

// MISE approximates the mean integrated squared error between the estimator
// and a reference density over [lo, hi] with the given number of grid
// points (Ex. 3.4's evaluator; lower is better).
func (e *Estimator) MISE(ref func(float64) float64, lo, hi float64, points int) float64 {
	if points < 2 {
		panic("kde: MISE needs at least two grid points")
	}
	step := (hi - lo) / float64(points-1)
	var sum float64
	for i := 0; i < points; i++ {
		x := lo + float64(i)*step
		d := e.Density(x) - ref(x)
		sum += d * d
	}
	return sum * step
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth for the
// samples: 1.06 · min(σ, IQR/1.34) · n^(-1/5). A principled starting point
// for the bandwidth explorable of the profiling job.
func SilvermanBandwidth(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 1
	}
	var mean float64
	for _, x := range samples {
		mean += x
	}
	mean /= float64(n)
	var variance float64
	for _, x := range samples {
		d := x - mean
		variance += d * d
	}
	sigma := math.Sqrt(variance / float64(n))
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	iqr := sorted[(3*n)/4] - sorted[n/4]
	spread := sigma
	if alt := iqr / 1.34; alt > 0 && alt < spread {
		spread = alt
	}
	if spread <= 0 {
		spread = 1
	}
	return 1.06 * spread * math.Pow(float64(n), -0.2)
}
