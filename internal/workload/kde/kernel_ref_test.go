package kde

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/vecmath"
)

// refKernels are the seven kernels as the closures they were before they
// became named functions, in the order of Kernels.
func refKernels() []Kernel {
	boxed := func(f func(float64) float64) func(float64) float64 {
		return func(u float64) float64 {
			if u < -1 || u > 1 {
				return 0
			}
			return f(u)
		}
	}
	return []Kernel{
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

// refDensity is the estimate g(x) = Σ Fn((x-xᵢ)/h) / (n·h) of §2.2 as a
// loop over the samples, through the kernel's function value.
func refDensity(k Kernel, h float64, samples []float64, x float64) float64 {
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

// kernelSubsets are the sets of kernels (indices into Kernels) the density
// pass is checked with: all of them, the Gaussian alone, the bounded ones,
// the cosine alone and a mix.
var kernelSubsets = [][]int{{0, 1, 2, 3, 4, 5, 6}, {0}, {1, 2, 3, 4, 5, 6}, {3}, {0, 3, 5}}

// checkDensityPass holds densityPass over samples at points, at bandwidth h,
// to refDensity over the reference closures, bit for bit: on each
// row-kernel path this machine runs, for every kernel subset, a kernel not
// explored getting no row. It also holds each kernel's Fn to its closure.
func checkDensityPass(t *testing.T, name string, samples, points []float64, h float64) {
	t.Helper()
	all, refs := Kernels(), refKernels()
	want := make([][]float64, len(all))
	for ki, k := range all {
		if k.Name != refs[ki].Name {
			t.Fatalf("kernel %d is %q, reference %q", ki, k.Name, refs[ki].Name)
		}
		want[ki] = make([]float64, len(points))
		for i, x := range points {
			want[ki][i] = refDensity(refs[ki], h, samples, x)
			if u := (x - 0.25) / h; !sameBits(k.Fn(u), refs[ki].Fn(u)) {
				t.Fatalf("%s: Fn(%v) = %v, reference %v", k.Name, u, k.Fn(u), refs[ki].Fn(u))
			}
		}
	}
	vecmath.OnEachPath(func(avx bool) {
		for _, subset := range kernelSubsets {
			var explored [kTriweight]bool
			for _, ki := range subset {
				explored[all[ki].builtin-1] = true
			}
			got := densityPass(samples, points, h, explored)
			for b, row := range got {
				if (row != nil) != explored[b] {
					t.Fatalf("avx=%v, %s, h=%g: kernel %d has a row: %v, explored: %v", avx, name, h, b+1, row != nil, explored[b])
				}
			}
			for _, ki := range subset {
				k, row := all[ki], got[all[ki].builtin-1]
				if len(row) != len(points) {
					t.Fatalf("avx=%v, %s: %s has %d densities, want one per point (%d)", avx, name, k.Name, len(row), len(points))
				}
				for i, x := range points {
					if !sameBits(row[i], want[ki][i]) {
						t.Fatalf("avx=%v, %s, %s, h=%g, %d samples: density at %v = %v (%016x), reference %v (%016x)",
							avx, name, k.Name, h, len(samples), x, row[i], math.Float64bits(row[i]), want[ki][i], math.Float64bits(want[ki][i]))
					}
				}
			}
		}
	})
}

// TestFusedDensitiesMatchDensity holds the fused density pass to the density
// g(x) as refDensity sums it (checkDensityPass), on fits that cover the
// support's edge cases: ordinary draws with ±0, subnormals and the support's
// ends among samples and points; one sample; 4 101 samples, eight of the
// pass's blocks and a tail; an empty sample; and a NaN, +Inf or -Inf sample,
// or non-finite points, each at bandwidths from 5e-324 to MaxFloat64.
func TestFusedDensitiesMatchDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	draw := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, 0.2, -0.2, 1, -1}
	withEdges := func(xs []float64) []float64 { return append(append([]float64{}, edges...), xs...) }
	spoil := func(v float64) []float64 {
		xs := withEdges(draw(300))
		xs[100] = v
		return xs
	}
	cases := []struct {
		name            string
		samples, points []float64
	}{
		{"finite", withEdges(draw(400)), withEdges(draw(40))},
		{"one sample", []float64{0.3}, withEdges(draw(8))},
		{"NaN sample", spoil(math.NaN()), draw(20)},
		{"+Inf sample", spoil(math.Inf(1)), draw(20)},
		{"-Inf sample", spoil(math.Inf(-1)), draw(20)},
		{"non-finite points", draw(300), []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5, math.MaxFloat64, -math.MaxFloat64}},
		{"4 101 samples", draw(4101), draw(12)},
		{"empty sample", nil, draw(5)},
	}
	for _, fc := range cases {
		for _, h := range []float64{0.1, 0.2, 0.3, 2, 1e-300, 5e-324, 1e300, math.MaxFloat64} {
			checkDensityPass(t, fc.name, fc.samples, fc.points, h)
		}
	}
}

// TestDensityMatchesReference holds the density pass to refDensity
// (checkDensityPass) on random fits of 0 to 400 samples, at points exactly
// at, just inside and just outside a sample's support. Then on the fits
// where the bounded kernels' support matters most: sorted, reverse-sorted,
// constant and clustered samples, 65 to 4 097 of them, at bandwidths from
// 1e-300 to 1e300, some near ±MaxFloat64 where x - xᵢ overflows, and fits
// holding a NaN or an infinity.
func TestDensityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
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
		checkDensityPass(t, "random", samples, xs, h)
	}
	for trial := 0; trial < 48; trial++ {
		n := []int{65, 100, 400, 1000, 4096, 4097}[trial%6]
		samples := make([]float64, n)
		scale := []float64{1, 1e-300, 1e300, math.MaxFloat64 / 2}[trial/6%4]
		for i := range samples {
			samples[i] = rng.NormFloat64() * scale
		}
		name := "clustered"
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
			name = "equal or non-finite"
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
		checkDensityPass(t, name, samples, xs, h)
	}
}

// TestExampleProfileMatchesReference runs every kernel's profileOp, on each
// row-kernel path, over inputs of no rows, of fewer rows than FitSample and
// of more, and holds each row of the profile to its grid point and to
// refDensity there, bit for bit, over the input or, when it has more than
// FitSample rows, over every stride-th row.
func TestExampleProfileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*1.5 + 1
	}
	p := DefaultExample()
	refs := refKernels()
	step := (6.0 - -4.0) / float64(p.GridPoints-1)
	for _, rows := range [][]float64{nil, xs[:150], xs} {
		in := []*dataset.Dataset{dataset.FromSlice("in", rows, 4, 8)}
		for _, fitSample := range []int{1, 7, 300, 1000} {
			p.FitSample = fitSample
			sample := rows
			if len(rows) > fitSample {
				sample = nil
				for i := 0; i < len(rows); i += len(rows) / fitSample {
					sample = append(sample, rows[i])
				}
			}
			for ki, k := range Kernels() {
				vecmath.OnEachPath(func(avx bool) {
					out, err := profileOp(p, k)(in)
					if err != nil {
						t.Fatal(err)
					}
					profile := dataset.Flatten[gridPoint](out)
					if len(profile) != p.GridPoints {
						t.Fatalf("%s: %d grid points, want %d", k.Name, len(profile), p.GridPoints)
					}
					for i, gp := range profile {
						x := -4.0 + float64(i)*step
						want := refDensity(refs[ki], p.Bandwidth, sample, x)
						if gp.X != x || !sameBits(gp.Density, want) {
							t.Fatalf("avx=%v, %s, %d rows, FitSample %d: point %d = (%v, %v), want (%v, %v)",
								avx, k.Name, len(rows), fitSample, i, gp.X, gp.Density, x, want)
						}
					}
				})
			}
		}
	}
}
