// Package kde implements the data profiling workload of §2.2 and §6: kernel
// density estimation over sensor-style measurements, with explorable data
// pre-processing (normalisation vs. standardisation), kernel functions and
// bandwidths, scored by the hold-out log likelihood (§6) or the mean
// integrated squared error (Ex. 3.4).
package kde

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// g(x) = 1/(n·h) Σ K((x - x_i)/h) (§2.2). Samples must not change after
// NewEstimator: the fit keeps their order.
type Estimator struct {
	Kernel    Kernel
	Bandwidth float64
	Samples   []float64
	// order lists the indices of Samples by ascending value, for the
	// support windows of the bounded kernels; nil when the fit has none
	// (sampleOrder).
	order []uint16
}

// NewEstimator fits an estimator on the samples; it panics on non-positive
// bandwidth.
func NewEstimator(k Kernel, bandwidth float64, samples []float64) *Estimator {
	if bandwidth <= 0 {
		panic("kde: bandwidth must be positive")
	}
	e := &Estimator{Kernel: k, Bandwidth: bandwidth, Samples: samples}
	if k.builtin > kGaussian {
		e.order = sampleOrder(samples)
	}
	return e
}

// maxWindowed is the most samples a fit may have for Density to add only
// the support of a bounded kernel: the size of the bitmap it marks the
// support in, on the stack.
const maxWindowed = 4096

// sampleOrder returns the indices of the samples by ascending value, or nil
// when there are more than maxWindowed samples or one is not finite: Density
// then adds every sample.
func sampleOrder(samples []float64) []uint16 {
	if len(samples) == 0 || len(samples) > maxWindowed {
		return nil
	}
	for _, v := range samples {
		if !finite(v) {
			return nil
		}
	}
	order := make([]uint16, len(samples))
	for i := range order {
		order[i] = uint16(i)
	}
	slices.SortFunc(order, func(a, b uint16) int { return cmp.Compare(samples[a], samples[b]) })
	return order
}

// Density evaluates g(x). It allocates nothing and builds no sample order:
// an estimator without one, such as a literal, adds every sample.
func (e *Estimator) Density(x float64) float64 {
	if len(e.Samples) == 0 {
		return 0
	}
	// One call of kernelSum or supportSum per built-in kernel: inlined here
	// with the kernel a constant, its loop calls no function value. The sum
	// is the same Σ Fn((x-xᵢ)/h), in the same order.
	var sum float64
	h := e.Bandwidth
	if e.Kernel.builtin > kGaussian && len(e.order) == len(e.Samples) && finite(x) && h > 0 && finite(h) {
		// A bounded kernel is +0 outside its support, and a sum of terms
		// that are never negative, begun at +0, is never -0: adding only
		// the samples in support, in the same order, changes no bit.
		var in support
		in.mark(e.Samples, e.order, x, h)
		switch e.Kernel.builtin {
		case kTopHat:
			sum = supportSum(topHat, x, h, e.Samples, &in)
		case kLinear:
			sum = supportSum(linear, x, h, e.Samples, &in)
		case kCosine:
			sum = supportSum(cosine, x, h, e.Samples, &in)
		case kEpanechnikov:
			sum = supportSum(epanechnikov, x, h, e.Samples, &in)
		case kBiweight:
			sum = supportSum(biweight, x, h, e.Samples, &in)
		case kTriweight:
			sum = supportSum(triweight, x, h, e.Samples, &in)
		}
		return sum / (float64(len(e.Samples)) * h)
	}
	switch e.Kernel.builtin {
	case kGaussian:
		sum = kernelSum(gaussian, x, h, e.Samples)
	case kTopHat:
		sum = kernelSum(topHat, x, h, e.Samples)
	case kLinear:
		sum = kernelSum(linear, x, h, e.Samples)
	case kCosine:
		sum = kernelSum(cosine, x, h, e.Samples)
	case kEpanechnikov:
		sum = kernelSum(epanechnikov, x, h, e.Samples)
	case kBiweight:
		sum = kernelSum(biweight, x, h, e.Samples)
	case kTriweight:
		sum = kernelSum(triweight, x, h, e.Samples)
	default:
		sum = kernelSum(e.Kernel.Fn, x, h, e.Samples)
	}
	return sum / (float64(len(e.Samples)) * h)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// kernelSum returns Σ k((x-xᵢ)/h) over the samples.
func kernelSum(k func(float64) float64, x, h float64, samples []float64) float64 {
	var sum float64
	for _, xi := range samples {
		sum += k((x - xi) / h)
	}
	return sum
}

// support is a bitmap of sample indices: bit i%64 of word i/64 is sample i.
type support [maxWindowed / 64]uint64

// mark sets the bits of the samples xᵢ with -1 <= (x-xᵢ)/h <= 1, the
// support of the bounded kernels, given their order and h > 0. u = (x-xᵢ)/h
// never rises as xᵢ does, rounding and overflow included, so those samples
// are one run of the order: from the first with u <= 1 to the last with
// u >= -1. Both ends are found by bisection on the expression the sum
// evaluates, so a sample is in the run exactly when its kernel is read
// inside the support.
func (s *support) mark(samples []float64, order []uint16, x, h float64) {
	lo, hi := 0, len(order)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); (x-samples[order[mid]])/h > 1 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	first := lo
	hi = len(order)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); (x-samples[order[mid]])/h >= -1 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for _, i := range order[first:lo] {
		s[i>>6] |= 1 << (i & 63)
	}
}

// supportSum returns Σ k((x-xᵢ)/h) over the samples marked in in, in
// ascending index.
func supportSum(k func(float64) float64, x, h float64, samples []float64, in *support) float64 {
	var sum float64
	for w, word := range in[:(len(samples)+63)/64] {
		for ; word != 0; word &= word - 1 {
			sum += k((x - samples[w<<6|bits.TrailingZeros64(word)]) / h)
		}
	}
	return sum
}
