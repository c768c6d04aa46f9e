// Package kde implements the data profiling workload of §2.2 and §6: kernel
// density estimation over sensor-style measurements, with explorable data
// pre-processing (normalisation vs. standardisation), kernel functions and
// bandwidths, scored by the hold-out log likelihood (§6) or the mean
// integrated squared error (Ex. 3.4).
package kde

import (
	"fmt"
	"math"

	"metadataflow/internal/vecmath"
)

// Kernel is a symmetric probability kernel K(u) with support on [-1, 1]
// (except the Gaussian, which has unbounded support).
type Kernel struct {
	// Name identifies the kernel (the explorable's label).
	Name string
	// Fn evaluates K(u). The estimate g(x) = 1/(n·h) Σ Fn((x-xᵢ)/h) (§2.2)
	// is what densityPass computes, bit for bit.
	Fn func(u float64) float64
	// builtin says which of the functions below Fn is, and so which row
	// of densityPass is the kernel's (builtin-1).
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

// gaussianExps sets e[j] = math.Exp(-0.5·u[j]²), bit for bit, through one
// vecmath.ExpRow, so that e[j]/math.Sqrt(2π) is gaussian(u[j]). e and u
// must be as long.
func gaussianExps(e, u []float64) {
	for j, v := range u {
		e[j] = -0.5 * v * v
	}
	vecmath.ExpRow(e, e)
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
	return vecmath.CosineTerm(u)
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
