// Package timeseries implements the time series analysis workload of §6
// (workload 2, Fig. 22): masking data points by value ranges within a
// sliding window, marking discrete events that indicate drastic changes, and
// detecting sequences of discrete events. The oil-well sensor dataset of the
// paper is substituted by a synthetic generator reproducing its statistical
// features (baseline drift, periodic component, heteroscedastic noise,
// injected events).
package timeseries

import (
	"fmt"
	"math"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/stats"
)

// Point is one sensor measurement.
type Point struct {
	T int64
	V float64
}

// Event is a detected discrete event.
type Event struct {
	Start, End int64
	Magnitude  float64
}

// Params configures the time series MDF.
type Params struct {
	// Rows is the number of measurements (the paper uses ~1 M).
	Rows int
	// Partitions is the dataset partition count.
	Partitions int
	// VirtualBytes is the accounted input size.
	VirtualBytes int64
	// WindowLengths (W) and Thresholds (T) are the masking explorables;
	// MarkWindows (L), MagDiffs (M) and Durations (D) the marking and
	// detection explorables. {W, T} form a first exploration scope closed
	// early by the masking-aggressiveness choose (Ex. 3.5 pattern); the
	// cross product of {L, M, D} forms a second scope over the surviving
	// data (§6 Fig. 7 explores their full product as separate jobs).
	WindowLengths []int
	Thresholds    []float64
	MarkWindows   []int
	MagDiffs      []float64
	Durations     []int
	// MaskKeepRatio bounds masking aggressiveness: a branch qualifies when
	// it keeps at least this fraction of the points.
	MaskKeepRatio float64
	// MaskKeepUpper, when < 1, additionally requires the masking to remove
	// something: branches keeping more than this fraction are rejected and
	// the masking choose becomes an interval selection (§3.1).
	MaskKeepUpper float64
	// Seed drives the generator.
	Seed int64
}

// Defaults returns a 64-branch configuration (4 inner × 16 outer).
func Defaults() Params {
	return Params{
		Rows:          20000,
		Partitions:    8,
		VirtualBytes:  4 << 30,
		WindowLengths: []int{2, 5},
		Thresholds:    []float64{1.001, 1.1},
		MarkWindows:   []int{2, 6},
		MagDiffs:      []float64{0.5, 2.0},
		Durations:     []int{50, 200, 500, 1000},
		MaskKeepRatio: 0.3,
		MaskKeepUpper: 0.9,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Rows < 100 || p.Partitions < 1 {
		return fmt.Errorf("timeseries: need >= 100 rows and >= 1 partition")
	}
	if len(p.WindowLengths)*len(p.Thresholds) < 2 {
		return fmt.Errorf("timeseries: masking explore needs >= 2 branches")
	}
	if len(p.MarkWindows)*len(p.MagDiffs)*len(p.Durations) < 2 {
		return fmt.Errorf("timeseries: marking explore needs >= 2 branches")
	}
	if p.MaskKeepRatio <= 0 || p.MaskKeepRatio > 1 {
		return fmt.Errorf("timeseries: keep ratio %g out of (0, 1]", p.MaskKeepRatio)
	}
	return nil
}

// Branches returns the total branch count of the MDF.
func (p Params) Branches() int {
	return len(p.WindowLengths) * len(p.Thresholds) *
		len(p.MarkWindows) * len(p.MagDiffs) * len(p.Durations)
}

// Generate produces a synthetic well-sensor series: slow drift + periodic
// component + noise whose variance shifts by regime, with injected spikes.
func Generate(p Params) *dataset.Dataset {
	rng := stats.NewRNG(p.Seed)
	rows := make([]Point, p.Rows)
	level := 100.0
	noise := 0.3
	for i := range rows {
		if rng.Float64() < 0.001 {
			level += rng.Normal(0, 5) // regime change
			noise = 0.1 + rng.Float64()
		}
		v := level +
			0.002*float64(i) + // drift
			2*math.Sin(float64(i)/500) + // periodic
			rng.Normal(0, noise)
		if rng.Float64() < 0.002 {
			v += rng.Normal(0, 12) // spike event
		}
		rows[i] = Point{T: int64(i), V: v}
	}
	d := dataset.FromSlice("well-sensor", rows, p.Partitions, 16)
	d.SetVirtualBytes(p.VirtualBytes)
	return d
}

// outParts returns a usable partition count for an operator output: the
// input's, or 1 when the input is empty (e.g. a choose selected nothing).
func outParts(in *dataset.Dataset) int {
	if n := in.NumPartitions(); n > 0 {
		return n
	}
	return 1
}

// maskOp keeps points whose sliding window of length w has a max/min ratio
// above the threshold t: points in "interesting" ranges survive (§6:
// "masking data points in the series based on the value ranges within a
// sliding window").
func maskOp(p Params, w int, t float64) graph.TransformFunc {
	// The name is read by the arity error alone, and the engine reports that
	// under the operator's own name, which spells the setting out: a plain
	// one saves formatting it for every branch of every job.
	return mdf.WholeDataset("mask",
		func(in *dataset.Dataset) (*dataset.Dataset, error) {
			pts := dataset.Flatten[Point](in)
			// Decide first, then copy the kept points into a slice of their
			// exact number.
			keep := make([]bool, len(pts))
			n := 0
			lastNaN := -1
			for i := range pts {
				v := pts[i].V
				if v != v {
					lastNaN = i
				}
				first := min(max(i-w+1, 0), i) // w < 1: the window is the point itself
				// Comparisons find the extremes math.Min and math.Max do, up
				// to the sign of a zero (lo <= 0 and hi/lo > t read ±0
				// alike), in a window without a NaN. What a NaN does to the
				// extremes (it yields to an infinity) is left to those two.
				lo, hi := v, v
				if lastNaN < first {
					for _, q := range pts[first:i] {
						if q.V < lo {
							lo = q.V
						}
						if q.V > hi {
							hi = q.V
						}
					}
				} else {
					for _, q := range pts[first:i] {
						lo = math.Min(lo, q.V)
						hi = math.Max(hi, q.V)
					}
				}
				if lo <= 0 {
					lo = 1e-9
				}
				if hi/lo > t {
					keep[i] = true
					n++
				}
			}
			kept := make([]Point, 0, n)
			for i, k := range keep {
				if k {
					kept = append(kept, pts[i])
				}
			}
			out := dataset.FromSlice("masked", kept, outParts(in), 16)
			if in.NumRows() > 0 {
				out.SetVirtualBytes(in.VirtualBytes() * int64(len(kept)) / int64(in.NumRows()))
			}
			return out, nil
		})
}

// windowMean is the mean of the l values before point i.
func windowMean(pts []Point, i, l int) float64 {
	var sum float64
	for j := i - l; j < i; j++ {
		sum += pts[j].V
	}
	return sum / float64(l)
}

// markOp marks discrete events: points where the value changes by more than
// magDiff relative to the median of the preceding window of length l.
func markOp(l int, magDiff float64) graph.TransformFunc {
	return mdf.WholeDataset("mark",
		func(in *dataset.Dataset) (*dataset.Dataset, error) {
			pts := dataset.Flatten[Point](in)
			// Events are few: decide first, then build them in a slice of
			// their exact number, taking the window mean a second time for
			// the points that became one.
			isEvent := make([]bool, len(pts))
			n := 0
			for i := max(l, 0); i < len(pts); i++ {
				if math.Abs(pts[i].V-windowMean(pts, i, l)) > magDiff {
					isEvent[i] = true
					n++
				}
			}
			events := make([]Event, 0, n)
			for i, is := range isEvent {
				if is {
					events = append(events, Event{Start: pts[i].T, End: pts[i].T, Magnitude: pts[i].V - windowMean(pts, i, l)})
				}
			}
			out := dataset.FromSlice("events", events, outParts(in), 24)
			out.SetVirtualBytes(in.VirtualBytes() / 20)
			return out, nil
		})
}

// detectOp groups marked events into sequences: consecutive events within
// duration d of each other merge into one detected sequence.
func detectOp(d int) graph.TransformFunc {
	return mdf.WholeDataset("detect",
		func(in *dataset.Dataset) (*dataset.Dataset, error) {
			var seqs []Event
			var cur *Event
			for _, e := range dataset.Flatten[Event](in) {
				if cur != nil && e.Start-cur.End <= int64(d) {
					cur.End = e.End
					if math.Abs(e.Magnitude) > math.Abs(cur.Magnitude) {
						cur.Magnitude = e.Magnitude
					}
					continue
				}
				if cur != nil {
					seqs = append(seqs, *cur)
				}
				c := e
				cur = &c
			}
			if cur != nil {
				seqs = append(seqs, *cur)
			}
			out := dataset.FromSlice("sequences", seqs, outParts(in), 24)
			out.SetVirtualBytes(in.VirtualBytes() / 4)
			return out, nil
		})
}

// detectionEvaluator scores an outer branch by its number of detected
// sequences (more distinct detected sequences = richer analysis).
func detectionEvaluator() mdf.Evaluator {
	return mdf.Evaluator{
		Name:      "sequences",
		Fn:        func(d *dataset.Dataset) float64 { return float64(d.NumRows()) },
		CostPerMB: 0.0003,
	}
}

// maskSelector returns the masking choose's selection function: a threshold
// on the kept-point ratio (Fig. 22), tightened to an interval when
// MaskKeepUpper < 1 so that useless maskings (removing nothing) are also
// rejected.
func (p Params) maskSelector() mdf.Selector {
	if p.MaskKeepUpper > 0 && p.MaskKeepUpper < 1 {
		return mdf.Interval(p.MaskKeepRatio, p.MaskKeepUpper)
	}
	return mdf.Threshold(p.MaskKeepRatio, false)
}

// BuildMDF constructs the time series MDF as two sequential exploration
// scopes (Fig. 22 with the early scope close of Ex. 3.5): first an explore
// over the (W, T) masking settings, closed immediately by the
// masking-aggressiveness choose so that underperforming maskings are
// discarded before any downstream work; then an explore over the (L, M, D)
// marking/detection settings on the surviving data, choosing the setting
// with the most detected sequences. A user running separate jobs must
// instead execute all |W×T| × |L×M×D| combinations (Fig. 7).
func BuildMDF(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	input := Generate(p)

	var maskSpecs []mdf.BranchSpec
	type wt struct {
		w int
		t float64
	}
	var wts []wt
	for wi, w := range p.WindowLengths {
		for ti, t := range p.Thresholds {
			maskSpecs = append(maskSpecs, mdf.BranchSpec{
				Label: fmt.Sprintf("w=%d,t=%g", w, t),
				Hint:  float64(wi*len(p.Thresholds) + ti),
			})
			wts = append(wts, wt{w, t})
		}
	}
	var outSpecs []mdf.BranchSpec
	type lmd struct {
		l int
		m float64
		d int
	}
	var lmds []lmd
	i := 0
	for _, l := range p.MarkWindows {
		for _, m := range p.MagDiffs {
			for _, d := range p.Durations {
				outSpecs = append(outSpecs, mdf.BranchSpec{
					Label: fmt.Sprintf("l=%d,m=%g,d=%d", l, m, d),
					Hint:  float64(i),
				})
				lmds = append(lmds, lmd{l, m, d})
				i++
			}
		}
	}

	maskEval := mdf.RatioEvaluator(p.Rows)
	maskEval.CostPerMB = 0.0002
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.0002)
	// Scope 1: masking exploration, closed early (Ex. 3.5).
	masked := src.Explore("masking", maskSpecs,
		mdf.NewChooser(maskEval, p.maskSelector()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			cfg := wts[int(spec.Hint)]
			return start.Then("mask("+spec.Label+")",
				maskOp(p, cfg.w, cfg.t), 0.004)
		})
	// Scope 2: marking and detection exploration over the selected data.
	out := masked.Explore("analysis", outSpecs,
		mdf.NewChooser(detectionEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			cfg := lmds[int(spec.Hint)]
			marked := start.Then("mark("+spec.Label+")",
				markOp(cfg.l, cfg.m), 0.003)
			return marked.Then("detect("+spec.Label+")",
				detectOp(cfg.d), 0.002)
		})
	out.Then("sink", mdf.Identity("detected"), 0.0001)
	return b.Build()
}

// MaskSelector exposes the masking choose selector used by Fig. 8's
// variants; callers can substitute top-k, first-k-threshold, etc.
type MaskSelector func(p Params) mdf.Selector

// BuildFlatMDF constructs the single-scope variant matching Fig. 22
// literally: one explore over (W, T) masking settings with a configurable
// selector, followed by fixed marking and detection. Used by the Fig. 8
// choose-function comparison.
func BuildFlatMDF(p Params, sel mdf.Selector, monotoneEval bool) (*graph.Graph, error) {
	// The flat variant has no marking/detection explore, so only the
	// masking-side constraints of Validate apply.
	if p.Rows < 100 || p.Partitions < 1 {
		return nil, fmt.Errorf("timeseries: need >= 100 rows and >= 1 partition")
	}
	if len(p.WindowLengths)*len(p.Thresholds) < 2 {
		return nil, fmt.Errorf("timeseries: masking explore needs >= 2 branches")
	}
	if len(p.MarkWindows) < 1 || len(p.MagDiffs) < 1 || len(p.Durations) < 1 {
		return nil, fmt.Errorf("timeseries: flat MDF needs fixed marking parameters")
	}
	input := Generate(p)
	var maskSpecs []mdf.BranchSpec
	type wt struct {
		w int
		t float64
	}
	// The branch body finds its setting by label: Hint is taken by the sort
	// key. A label spells out (w, t), so a repeated one names the same
	// setting.
	byLabel := make(map[string]wt, len(p.WindowLengths)*len(p.Thresholds))
	for _, w := range p.WindowLengths {
		for _, t := range p.Thresholds {
			label := fmt.Sprintf("w=%d,t=%g", w, t)
			maskSpecs = append(maskSpecs, mdf.BranchSpec{
				Label: label,
				// The masking kept-ratio falls monotonically in the
				// threshold; hint-sorting by (t, w) enables sorted-order
				// scheduling (Fig. 8 "first-4, sorted").
				Hint: t*1000 + float64(w),
			})
			byLabel[label] = wt{w, t}
		}
	}
	if len(maskSpecs) < 2 {
		return nil, fmt.Errorf("timeseries: flat MDF needs >= 2 masking branches")
	}
	eval := mdf.RatioEvaluator(p.Rows)
	eval.CostPerMB = 0.0002
	eval.Monotone = monotoneEval
	l, m, d := p.MarkWindows[0], p.MagDiffs[0], p.Durations[0]

	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.0002)
	masked := src.Explore("masking", maskSpecs, mdf.NewChooser(eval, sel),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			cfg := byLabel[spec.Label]
			return start.Then("mask("+spec.Label+")", maskOp(p, cfg.w, cfg.t), 0.004)
		})
	marked := masked.Then("mark", markOp(l, m), 0.003)
	detected := marked.Then("detect", detectOp(d), 0.002)
	detected.Then("sink", mdf.Identity("detected"), 0.0001)
	return b.Build()
}

// MaskForTest applies the masking operator directly to a dataset; exposed
// for calibration tests and tooling.
func MaskForTest(p Params, w int, t float64, in *dataset.Dataset) (*dataset.Dataset, error) {
	return maskOp(p, w, t)([]*dataset.Dataset{in})
}
