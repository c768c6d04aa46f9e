package kde_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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
// kernels' support, NaN and the infinities. The second half holds the fits a
// bounded kernel adds only its support of: sorted, reverse-sorted, constant
// and clustered samples, 65 to 4 096 of them, at bandwidths from 1e-300 to
// 1e300, some near ±MaxFloat64 where x - xᵢ overflows, and fits holding a NaN
// or an infinity, which take the full scan.
func TestDensityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	custom := kde.Kernel{Name: "gaussian", Fn: func(u float64) float64 { return 1 / (1 + u*u) / math.Pi }}
	kernels, refs := append(kde.Kernels(), custom), append(refKernels(), custom)
	if len(kernels) != 8 {
		t.Fatalf("%d kernels, want the seven built-in ones and the custom one", len(kernels))
	}
	check := func(samples []float64, h float64, xs []float64) {
		t.Helper()
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
		check(samples, h, xs)
	}
	for trial := 0; trial < 48; trial++ {
		n := []int{65, 100, 400, 1000, 4096, 4097}[trial%6]
		samples := make([]float64, n)
		scale := []float64{1, 1e-300, 1e300, math.MaxFloat64 / 2}[trial/6%4]
		for i := range samples {
			samples[i] = rng.NormFloat64() * scale
		}
		switch trial / 24 % 2 {
		case 0: // clustered duplicates, then sorted or reverse-sorted
			for i := range samples {
				if rng.Intn(3) == 0 {
					samples[i] = samples[rng.Intn(i+1)]
				}
			}
			sort.Float64s(samples)
			if rng.Intn(2) == 1 {
				slices.Reverse(samples)
			}
		case 1: // all equal, or holding a non-finite sample
			switch rng.Intn(4) {
			case 0:
				for i := range samples {
					samples[i] = samples[0]
				}
			case 1:
				samples[rng.Intn(n)] = math.NaN()
			case 2:
				samples[rng.Intn(n)] = math.Inf(1)
			case 3:
				samples[rng.Intn(n)] = math.Inf(-1)
			}
		}
		if scale == math.MaxFloat64/2 {
			// Near ±MaxFloat64: x - xᵢ overflows to an infinity.
			samples[0], samples[n-1] = math.MaxFloat64, -math.MaxFloat64
		}
		h := []float64{1e-300, 1e-10, 0.05, 0.5, 3, 1e300}[rng.Intn(6)] * math.Max(scale, 1)
		if math.IsInf(h, 0) {
			h = math.MaxFloat64
		}
		xs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
		for range 12 {
			s := samples[rng.Intn(n)]
			// Exactly at xᵢ ± h and one ulp on either side of each.
			for _, e := range []float64{s + h, s - h} {
				xs = append(xs, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
			}
			xs = append(xs, s, s+rng.NormFloat64()*h)
		}
		check(samples, h, xs)
	}
}

// densitySink keeps the benchmarked call's result alive.
var densitySink float64

// BenchmarkDensity evaluates the estimator of a Defaults() job (400 fit
// samples) at one point, per kernel at h 0.2; "custom" is a kernel built
// outside the package, which Density cannot inline. A bounded kernel adds
// only the samples in its support: "narrow" (h 0.05) and "wide" (h 0.5) run
// epanechnikov with a support of about 4 % and 38 % of the samples.
func BenchmarkDensity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, kde.Defaults().FitSample)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	custom := kde.Kernel{Name: "custom", Fn: func(u float64) float64 { return 1 / (1 + u*u) / math.Pi }}
	epanechnikov, err := kde.KernelByName("epanechnikov")
	if err != nil {
		b.Fatal(err)
	}
	type bench struct {
		name string
		est  *kde.Estimator
	}
	var benches []bench
	for _, k := range append(kde.Kernels(), custom) {
		benches = append(benches, bench{k.Name, kde.NewEstimator(k, 0.2, samples)})
	}
	benches = append(benches,
		bench{"narrow", kde.NewEstimator(epanechnikov, 0.05, samples)},
		bench{"wide", kde.NewEstimator(epanechnikov, 0.5, samples)})
	for _, bb := range benches {
		b.Run(bb.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				densitySink += bb.est.Density(0.1)
			}
		})
	}
}
