// Time series analysis (§6 workload 2): mask sensor measurements with
// explorable sliding-window settings, keep only maskings that are not overly
// aggressive, then mark and detect event sequences on the surviving data.
// Demonstrates the scoped-exploration pattern of Ex. 3.5: the choose closes
// the masking scope early, so losing branches are discarded before the
// downstream stages run.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	mdf "metadataflow"
)

type point struct {
	t int64
	v float64
}

func main() {
	// Synthetic well-pressure series: drift + periodic + noise + spikes.
	rng := rand.New(rand.NewSource(7))
	rows := make([]point, 20000)
	for i := range rows {
		v := 100 + 0.001*float64(i) + 2*math.Sin(float64(i)/300) + 0.3*rng.NormFloat64()
		if rng.Float64() < 0.002 {
			v += 10 * rng.NormFloat64()
		}
		rows[i] = point{t: int64(i), v: v}
	}
	input := mdf.FromSlice("well-sensor", rows, 8, 16)
	// Account the input as a 4 GB dataset on the simulated cluster.
	input.SetVirtualBytes(4 << 30)

	// Explorable masking settings: window length x ratio threshold.
	var specs []mdf.BranchSpec
	type wt struct {
		w int
		t float64
	}
	var wts []wt
	for _, w := range []int{2, 4, 8} {
		for _, t := range []float64{1.0002, 1.001, 1.005} {
			specs = append(specs, mdf.BranchSpec{
				Label: fmt.Sprintf("w=%d t=%g", w, t),
				Hint:  t*1000 + float64(w),
			})
			wts = append(wts, wt{w, t})
		}
	}

	// Branch quality: fraction of points kept; select every branch that
	// keeps at least 30% (threshold selection, Fig. 22's pattern).
	eval := mdf.RatioEvaluator(len(rows))
	chooser := mdf.NewChooser(eval, mdf.Threshold(0.3, false))

	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	masked := src.Explore("masking", specs, chooser,
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			c := wts[0]
			for i, s := range specs {
				if s.Label == spec.Label {
					c = wts[i]
				}
			}
			return start.Then("mask("+spec.Label+")", maskOp(c.w, c.t), 0.004)
		})
	marked := masked.Then("mark", markOp(4, 1.0), 0.003)
	marked.Then("sink", mdf.Identity("events"), 0)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := mdf.Run(g, mdf.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("masking settings explored: %d\n", len(specs))
	fmt.Printf("events detected:           %d\n", res.Output.NumRows())
	fmt.Printf("completion time:           %.2f virtual seconds\n", res.CompletionTime())
	fmt.Printf("branch datasets discarded: %d\n", res.Metrics.BranchesDiscarded)
}

// maskOp keeps points whose sliding window max/min ratio exceeds t.
func maskOp(w int, t float64) mdf.TransformFunc {
	return mdf.WholeDataset("mask", func(in *mdf.Dataset) (*mdf.Dataset, error) {
		pts := mdf.Flatten[point](in)
		var kept []point
		for i := range pts {
			lo, hi := pts[i].v, pts[i].v
			for j := max(0, i-w+1); j <= i; j++ {
				lo = math.Min(lo, pts[j].v)
				hi = math.Max(hi, pts[j].v)
			}
			if hi/lo > t {
				kept = append(kept, pts[i])
			}
		}
		return mdf.FromSlice("masked", kept, in.NumPartitions(), 16), nil
	})
}

// markOp emits one row per drastic change relative to the trailing mean.
func markOp(l int, magDiff float64) mdf.TransformFunc {
	return mdf.WholeDataset("mark", func(in *mdf.Dataset) (*mdf.Dataset, error) {
		pts := mdf.Flatten[point](in)
		var events []point
		for i := l; i < len(pts); i++ {
			var sum float64
			for j := i - l; j < i; j++ {
				sum += pts[j].v
			}
			if math.Abs(pts[i].v-sum/float64(l)) > magDiff {
				events = append(events, pts[i])
			}
		}
		return mdf.FromSlice("events", events, in.NumPartitions(), 16), nil
	})
}
