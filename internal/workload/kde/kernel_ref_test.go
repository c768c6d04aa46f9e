package kde_test

import (
	"math"
	"math/rand"
	"testing"

	"metadataflow/internal/workload/kde"
)

// refKernels are the seven kernels as the closures they were before they
// became named functions, in the order of kde.Kernels.
func refKernels() []kde.Kernel {
	boxed := func(f func(float64) float64) func(float64) float64 {
		return func(u float64) float64 {
			if u < -1 || u > 1 {
				return 0
			}
			return f(u)
		}
	}
	return []kde.Kernel{
		{Name: "gaussian", Fn: func(u float64) float64 {
			return math.Exp(-0.5*u*u) / math.Sqrt(2*math.Pi)
		}},
		{Name: "top-hat", Fn: boxed(func(u float64) float64 { return 0.5 })},
		{Name: "linear", Fn: boxed(func(u float64) float64 { return 1 - math.Abs(u) })},
		{Name: "cosine", Fn: boxed(func(u float64) float64 {
			return math.Pi / 4 * math.Cos(math.Pi/2*u)
		})},
		{Name: "epanechnikov", Fn: boxed(func(u float64) float64 { return 0.75 * (1 - u*u) })},
		{Name: "biweight", Fn: boxed(func(u float64) float64 {
			t := 1 - u*u
			return 15.0 / 16.0 * t * t
		})},
		{Name: "triweight", Fn: boxed(func(u float64) float64 {
			t := 1 - u*u
			return 35.0 / 32.0 * t * t * t
		})},
	}
}

// refDensity is Density as it was: two calls through function values per
// sample.
func refDensity(k kde.Kernel, h float64, samples []float64, x float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, xi := range samples {
		sum += k.Fn((x - xi) / h)
	}
	return sum / (float64(len(samples)) * h)
}

// sameBits reports whether two results are the same float64, bit for bit.
// Any NaN is any other: which operand's sign and payload an addition of two
// NaNs keeps is up to the instruction the compiler picks.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestDensityMatchesReference compares Density, bit for bit, with the
// Σ Fn((x-xᵢ)/h) loop over the old closures: for the seven built-in kernels,
// whose calls Density inlines, and for a kernel built outside the package,
// which keeps the loop over Fn. The points include the edges of the bounded
// kernels' support, NaN and the infinities.
func TestDensityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	custom := kde.Kernel{Name: "gaussian", Fn: func(u float64) float64 { return 1 / (1 + u*u) / math.Pi }}
	kernels, refs := append(kde.Kernels(), custom), append(refKernels(), custom)
	if len(kernels) != 8 {
		t.Fatalf("%d kernels, want the seven built-in ones and the custom one", len(kernels))
	}
	for trial := 0; trial < 60; trial++ {
		samples := make([]float64, []int{0, 1, 7, 400}[trial%4])
		for i := range samples {
			samples[i] = rng.NormFloat64()
		}
		if len(samples) > 3 && trial%8 == 3 {
			samples[1], samples[2] = math.NaN(), math.Inf(1)
		}
		h := []float64{0.1, 0.2, 0.3, 1, 1e-300, 1e300}[rng.Intn(6)]
		xs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, s := range samples[:min(len(samples), 20)] {
			// Points exactly at, just inside and just outside the support.
			xs = append(xs, s+h, s-h, math.Nextafter(s+h, 0), math.Nextafter(s+h, 10), rng.NormFloat64()*2)
		}
		for ki, k := range kernels {
			if k.Name != refs[ki].Name {
				t.Fatalf("kernel %d is %q, reference %q", ki, k.Name, refs[ki].Name)
			}
			est := kde.NewEstimator(k, h, samples)
			for _, x := range xs {
				got, want := est.Density(x), refDensity(refs[ki], h, samples, x)
				if !sameBits(got, want) {
					t.Fatalf("%s (kernel %d), h=%g, %d samples: Density(%v) = %v (%016x), reference %v (%016x)",
						k.Name, ki, h, len(samples), x, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if u := (x - 0.25) / h; !sameBits(k.Fn(u), refs[ki].Fn(u)) {
					t.Fatalf("%s: Fn(%v) = %v, reference %v", k.Name, u, k.Fn(u), refs[ki].Fn(u))
				}
			}
		}
	}
}

// densitySink keeps the benchmarked call's result alive.
var densitySink float64

// BenchmarkDensity evaluates the estimator of a Defaults() job (400 fit
// samples) at one point, per kernel; "custom" is a kernel built outside the
// package, which Density cannot inline.
func BenchmarkDensity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, kde.Defaults().FitSample)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	custom := kde.Kernel{Name: "custom", Fn: func(u float64) float64 { return 1 / (1 + u*u) / math.Pi }}
	for _, k := range append(kde.Kernels(), custom) {
		est := kde.NewEstimator(k, 0.2, samples)
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				densitySink += est.Density(0.1)
			}
		})
	}
}
