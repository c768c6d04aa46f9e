package kde

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
)

// refFit is the split and fit sample each estimate made for itself before
// the estimates of one input shared them, in slices of its own.
func refFit(p Params, xs []float64) (holdout, train []float64) {
	nHold := int(float64(len(xs)) * p.HoldoutFraction)
	if nHold < 1 {
		nHold = 1
	}
	holdout, train = xs[:nHold], xs[nHold:]
	var sampled []float64
	if len(train) > p.FitSample {
		stride := len(train) / p.FitSample
		for i := 0; i < len(train); i += stride {
			sampled = append(sampled, train[i])
		}
	} else {
		sampled = append(sampled, train...)
	}
	return slices.Clone(holdout), sampled
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestJobMakesTwoFits runs a data profiling job at Defaults(): its 42
// estimates over two pre-processed inputs must make two fits, each the split
// and sample an estimate made for itself, and every estimate over either
// input must equal, bit for bit, a fresh NewEstimator fit of that sample and
// the full scan of an estimator without a sample order.
func TestJobMakesTwoFits(t *testing.T) {
	p := Defaults()
	type made struct {
		pre float64
		in  []float64
		fit
	}
	var mu sync.Mutex
	var fits []made
	memo := mdf.NewMemo(func(pre float64, xs []float64) fit {
		f := newFit(p, xs)
		mu.Lock()
		fits = append(fits, made{pre, xs, f})
		mu.Unlock()
		return f
	})
	g, err := buildMDF(p, memo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Execute(g, engine.Options{
		Cluster:     cluster.MustNew(cluster.DefaultConfig()),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(nil),
		Incremental: true,
	}); err != nil {
		t.Fatal(err)
	}
	if len(fits) != 2 {
		t.Fatalf("a job made %d fits, want one per pre-processing (2)", len(fits))
	}
	kernels, err := p.kernels()
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range fits {
		holdout, train := refFit(p, f.in)
		if !sameFloats(f.holdout, holdout) || !sameFloats(f.train, train) {
			t.Fatalf("fit %d: %d hold-out points and %d samples, not the %d and %d an estimate drew for itself",
				fi, len(f.holdout), len(f.train), len(holdout), len(train))
		}
		in := []*dataset.Dataset{dataset.FromSlice("in", f.in, p.Partitions, 8)}
		dens := densityMemo(memo, kernels)
		for _, k := range kernels {
			for _, h := range p.Bandwidths {
				out, err := estimateOp(dens, f.pre, k, h, kdeName(k.Name, h))(in)
				if err != nil {
					t.Fatal(err)
				}
				got := dataset.Flatten[float64](out)
				fresh, scan := NewEstimator(k, h, train), &Estimator{Kernel: k, Bandwidth: h, Samples: train}
				for i, x := range holdout {
					if want := fresh.Density(x); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("fit %d, %s: density %d = %v, a fresh fit %v", fi, kdeName(k.Name, h), i, got[i], want)
					}
					if want := scan.Density(x); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("fit %d, %s: density %d = %v, the full scan %v", fi, kdeName(k.Name, h), i, got[i], want)
					}
				}
			}
		}
	}
	if len(fits) != 2 {
		t.Errorf("estimates over the job's inputs made %d fits, want the job's 2", len(fits))
	}
}

// sameDensity reports whether two densities are the same float64, bit for
// bit; any NaN is any other, as kernel_ref_test's sameBits has it: which
// operand's payload an addition of two NaNs keeps is up to the compiler.
func sameDensity(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestFusedDensitiesMatchDensity holds the fused pass to Estimator.Density,
// bit for bit, for every kernel at every bandwidth, on each row-kernel path
// this machine runs, and for subsets of the kernels (a kernel not explored
// gets no row). The fits take each of Density's paths: the support windows
// of finite samples; the full loop of a fit holding a NaN, an infinity, or
// more than maxWindowed samples, of a non-finite hold-out point, and of a
// bandwidth so small that u overflows; and the 0 of an empty train sample.
// Samples and points include ±0, subnormals and the support's ends.
func TestFusedDensitiesMatchDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	draw := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}
	type fitCase struct {
		name           string
		train, holdout []float64
	}
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, 0.2, -0.2, 1, -1}
	withEdges := func(xs []float64) []float64 { return append(append([]float64{}, edges...), xs...) }
	spoil := func(v float64) []float64 {
		xs := withEdges(draw(300))
		xs[100] = v
		return xs
	}
	cases := []fitCase{
		{"finite", withEdges(draw(400)), withEdges(draw(40))},
		{"one sample", []float64{0.3}, withEdges(draw(8))},
		{"NaN sample", spoil(math.NaN()), draw(20)},
		{"+Inf sample", spoil(math.Inf(1)), draw(20)},
		{"-Inf sample", spoil(math.Inf(-1)), draw(20)},
		{"non-finite points", draw(300), []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5, math.MaxFloat64, -math.MaxFloat64}},
		{"past maxWindowed", draw(maxWindowed + 5), draw(12)},
		{"empty train sample", nil, draw(5)},
	}
	bandwidths := []float64{0.1, 0.2, 0.3, 2, 1e-300, 5e-324, 1e300, math.MaxFloat64}
	all := Kernels()
	subsets := [][]Kernel{all, all[:1], all[1:], {all[3]}, {all[0], all[3], all[5]}}
	for _, avx := range testPaths() {
		for _, fc := range cases {
			for _, h := range bandwidths {
				for _, kernels := range subsets {
					var explored [kTriweight]bool
					for _, k := range kernels {
						explored[k.builtin-1] = true
					}
					var got densities
					onPath(avx, func() { got = densityPass(fc.train, fc.holdout, h, explored) })
					for b, row := range got {
						if (row != nil) != explored[b] {
							t.Fatalf("avx=%v, %s, h=%g: kernel %d has a row: %v, explored: %v", avx, fc.name, h, b+1, row != nil, explored[b])
						}
					}
					for _, k := range kernels {
						est := NewEstimator(k, h, fc.train)
						row := got[k.builtin-1]
						if len(row) != len(fc.holdout) {
							t.Fatalf("avx=%v, %s: %s has %d densities, want one per hold-out point (%d)", avx, fc.name, k.Name, len(row), len(fc.holdout))
						}
						for i, x := range fc.holdout {
							if want := est.Density(x); !sameDensity(row[i], want) {
								t.Fatalf("avx=%v, %s, %s, h=%g: density at %v = %v (%016x), Density %v (%016x)",
									avx, fc.name, k.Name, h, x, row[i], math.Float64bits(row[i]), want, math.Float64bits(want))
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkDensities is one density pass of a Defaults() job: every kernel's
// density at 200 hold-out points of a 400-sample fit at h 0.2, on the /avx
// and the /go row-kernel path. A job makes 6 (2 pre-processings × 3
// bandwidths).
func BenchmarkDensities(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	holdout, train := xs[:200], xs[200:]
	explored := [kTriweight]bool{true, true, true, true, true, true, true}
	for _, avx := range testPaths() {
		name := "go"
		if avx {
			name = "avx"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			onPath(avx, func() {
				for i := 0; i < b.N; i++ {
					densitySink = densityPass(train, holdout, 0.2, explored)
				}
			})
		})
	}
}

// densitySink keeps the benchmarked pass's result alive.
var densitySink densities
