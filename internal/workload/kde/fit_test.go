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
	"metadataflow/internal/vecmath"
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
// input must equal, bit for bit, refDensity over that sample.
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
				for i, x := range holdout {
					if want := refDensity(k, h, train, x); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("fit %d, %s: density %d = %v, reference %v", fi, kdeName(k.Name, h), i, got[i], want)
					}
				}
			}
		}
	}
	if len(fits) != 2 {
		t.Errorf("estimates over the job's inputs made %d fits, want the job's 2", len(fits))
	}
}

// TestDensityPositiveNearData: a Gaussian estimate is positive at the centre
// of its samples and falls away from them.
func TestDensityPositiveNearData(t *testing.T) {
	explored := [kTriweight]bool{kGaussian - 1: true}
	d := densityPass([]float64{0, 0.1, -0.1, 0.2}, []float64{0, 5}, 0.5, explored)[kGaussian-1]
	if d[0] <= 0 {
		t.Errorf("density at data centre = %f, want > 0", d[0])
	}
	if d[1] >= d[0] {
		t.Errorf("density should fall away from data: %f vs %f", d[0], d[1])
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
	vecmath.OnEachPath(func(avx bool) {
		b.Run(map[bool]string{false: "go", true: "avx"}[avx], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				densitySink = densityPass(train, holdout, 0.2, explored)
			}
		})
	})
}

// densitySink keeps the benchmarked pass's result alive.
var densitySink densities
