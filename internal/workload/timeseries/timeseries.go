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
	"strconv"

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
	if !(p.MaskKeepRatio > 0 && p.MaskKeepRatio <= 1) {
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

// markSetting is the key of mark's shared events: the window length l and
// the bits of magDiff (a NaN is a key like any other).
type markSetting struct {
	l       int
	magDiff uint64
}

// markMemo returns the memo of mark's events per setting. It computes them
// from the window means of l, which it reads from means, a memo of
// windowMeans shared by every magDiff of l.
func markMemo(means *mdf.Memo[int, Point, []float64]) *mdf.Memo[markSetting, Point, []Event] {
	return mdf.NewMemo(func(s markSetting, pts []Point) []Event {
		return markEvents(pts, means.Get(s.l, pts), s.l, math.Float64frombits(s.magDiff))
	})
}

// windowRatios returns, for every point, the max/min ratio of the window of
// length w ending at it, with a minimum that is not positive read as 1e-9.
func windowRatios(w int, pts []Point) []float64 {
	ratio := make([]float64, len(pts))
	lastNaN := -1
	for i := range pts {
		v := pts[i].V
		if v != v {
			lastNaN = i
		}
		first := min(max(i-w+1, 0), i) // w < 1: the window is the point itself
		// In a window without a NaN the builtins min and max, which take no
		// branch, find the extremes math.Min and math.Max do, bit for bit:
		// both order −0 below +0. Where they part is a NaN, which the
		// builtins return and which yields to an infinity in math's two, so
		// a window holding one is left to those.
		lo, hi := v, v
		if lastNaN < first {
			for _, q := range pts[first:i] {
				lo = min(lo, q.V)
				hi = max(hi, q.V)
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
		ratio[i] = hi / lo
	}
	return ratio
}

// maskOp keeps points whose sliding window of length w has a max/min ratio
// above the threshold t: points in "interesting" ranges survive (§6:
// "masking data points in the series based on the value ranges within a
// sliding window"). The ratios come from ratios, a memo of windowRatios
// shared by every threshold of w. It is one closure: a flat job builds one
// per branch.
//
// The output is counted here and copied only when an operator reads it
// (dataset.Defer): the masking choose's evaluator reads the row count alone,
// so a branch it discards never copies its points.
func maskOp(ratios *mdf.Memo[int, Point, []float64], w int, t float64) graph.TransformFunc {
	// The name is read by the arity error alone, and the engine reports that
	// under the operator's own name, which spells the setting out: a plain
	// one saves formatting it for every branch of every job.
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := mdf.OneInput("mask", ins)
		if err != nil {
			return nil, err
		}
		pts := dataset.Flatten[Point](in)
		ratio := ratios.Get(w, pts)
		n := 0
		for _, r := range ratio {
			if r > t {
				n++
			}
		}
		out := dataset.Defer("masked", n, fillMask, maskKept{pts: pts, ratio: ratio, t: t}, outParts(in), 16)
		if in.NumRows() > 0 {
			out.SetVirtualBytes(in.VirtualBytes() * int64(n) / int64(in.NumRows()))
		}
		return out, nil
	}
}

// maskKept is what a mask output's deferred column is filled from
// (fillMask). It holds nothing the mask's memo does not already hold.
type maskKept struct {
	pts   []Point
	ratio []float64
	t     float64
}

// maskFilled, when set, is called on every fill of a mask output; tests
// count the fills through it.
var maskFilled func()

// fillMask appends to kept the points of m.pts whose window ratio is above
// m.t, in order.
func fillMask(m maskKept, kept []Point) []Point {
	if maskFilled != nil {
		maskFilled()
	}
	for i, r := range m.ratio {
		if r > m.t {
			kept = append(kept, m.pts[i])
		}
	}
	return kept
}

// windowMeans returns, for every point i from l on, the mean of the l values
// before it (windowMean); the points before l are left 0.
func windowMeans(l int, pts []Point) []float64 {
	mean := make([]float64, len(pts))
	for i := max(l, 0); i < len(pts); i++ {
		mean[i] = windowMean(pts, i, l)
	}
	return mean
}

// windowMean is the mean of the l values before point i.
func windowMean(pts []Point, i, l int) float64 {
	var sum float64
	for j := i - l; j < i; j++ {
		sum += pts[j].V
	}
	return sum / float64(l)
}

// markEvents returns the points from l on whose value differs by more than
// magDiff from mean, the mean of the l values before it.
func markEvents(pts []Point, mean []float64, l int, magDiff float64) []Event {
	// Events are few: count first, then build them in a slice of their
	// exact number.
	n := 0
	for i := max(l, 0); i < len(pts); i++ {
		if math.Abs(pts[i].V-mean[i]) > magDiff {
			n++
		}
	}
	events := make([]Event, 0, n)
	for i := max(l, 0); i < len(pts); i++ {
		if math.Abs(pts[i].V-mean[i]) > magDiff {
			events = append(events, Event{Start: pts[i].T, End: pts[i].T, Magnitude: pts[i].V - mean[i]})
		}
	}
	return events
}

// markOp marks discrete events: points where the value differs by more than
// magDiff from the mean of the l values before it. The events come from
// marks (markMemo), shared by every duration of (l, magDiff), and read-only:
// each branch wraps them in a dataset of its own. It is one closure, as
// maskOp is.
func markOp(marks *mdf.Memo[markSetting, Point, []Event], l int, magDiff float64) graph.TransformFunc {
	s := markSetting{l: l, magDiff: math.Float64bits(magDiff)}
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := mdf.OneInput("mark", ins)
		if err != nil {
			return nil, err
		}
		events := marks.Get(s, dataset.Flatten[Point](in))
		out := dataset.FromSlice("events", events, outParts(in), 24)
		out.SetVirtualBytes(in.VirtualBytes() / 20)
		return out, nil
	}
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

// maskNames and markNames name the first operator of every branch of an
// explore after its setting, as "mask(w=%d,t=%g)" and "mark(l=%d,m=%g,d=%d)"
// would (strconv's shortest 'g' form is what %g prints), in one string per
// explore (mdf.BranchNames). maskNames runs over every window length and,
// within it, every threshold (maskBranch); markNames over every l, m within
// it and d within that (markBranch). Each threshold and magnitude is
// formatted once (formatFloats), not once per name and pass. A branch's
// label is the setting between the parentheses (mdf.Setting), a substring of
// its name: the labels name the branch's stages in plans, picks and
// telemetry.
func maskNames(ws []int, ts []float64) []string {
	var text [256]byte
	var ends [32]int
	tt, te := formatFloats(text[:0], ends[:0], ts)
	return mdf.BranchNames(len(ws)*len(ts), func(b []byte, i int) []byte {
		w, _ := maskBranch(ws, ts, i)
		ti := i % len(ts)
		b = strconv.AppendInt(append(b, "mask(w="...), int64(w), 10)
		b = append(append(b, ",t="...), tt[te[ti]:te[ti+1]]...)
		return append(b, ')')
	})
}

func markNames(ls []int, ms []float64, ds []int) []string {
	var text [256]byte
	var ends [32]int
	mt, me := formatFloats(text[:0], ends[:0], ms)
	return mdf.BranchNames(len(ls)*len(ms)*len(ds), func(b []byte, i int) []byte {
		l, _, d := markBranch(ls, ms, ds, i)
		mi := i / len(ds) % len(ms)
		b = strconv.AppendInt(append(b, "mark(l="...), int64(l), 10)
		b = append(append(b, ",m="...), mt[me[mi]:me[mi+1]]...)
		b = strconv.AppendInt(append(b, ",d="...), int64(d), 10)
		return append(b, ')')
	})
}

// formatFloats appends the shortest 'g' form of every value to text, and to
// ends 0 and then where each form ends: value i reads text[ends[i]:ends[i+1]].
// Callers pass arrays of their own, which a few dozen values do not outgrow.
func formatFloats(text []byte, ends []int, vs []float64) ([]byte, []int) {
	ends = append(ends, 0)
	for _, v := range vs {
		text = strconv.AppendFloat(text, v, 'g', -1, 64)
		ends = append(ends, len(text))
	}
	return text, ends
}

// maskBranch returns the window length and threshold of masking branch i,
// window-major: the order of maskNames.
func maskBranch(ws []int, ts []float64, i int) (w int, t float64) {
	return ws[i/len(ts)], ts[i%len(ts)]
}

// markBranch returns the mark window, magnitude and duration of analysis
// branch i, in the order of markNames.
func markBranch(ls []int, ms []float64, ds []int, i int) (l int, m float64, d int) {
	return ls[i/(len(ms)*len(ds))], ms[i/len(ds)%len(ms)], ds[i%len(ds)]
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

	masks := maskNames(p.WindowLengths, p.Thresholds)
	maskSpecs := make([]mdf.BranchSpec, len(masks))
	for i, name := range masks {
		maskSpecs[i] = mdf.BranchSpec{Label: mdf.Setting(name), Hint: float64(i)}
	}
	marks := markNames(p.MarkWindows, p.MagDiffs, p.Durations)
	outSpecs := make([]mdf.BranchSpec, len(marks))
	for i, name := range marks {
		outSpecs[i] = mdf.BranchSpec{Label: mdf.Setting(name), Hint: float64(i)}
	}

	maskEval := mdf.RatioEvaluator(p.Rows)
	maskEval.CostPerMB = 0.0002
	ratios, events := mdf.NewMemo(windowRatios), markMemo(mdf.NewMemo(windowMeans))
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.0002)
	// Scope 1: masking exploration, closed early (Ex. 3.5).
	masked := src.Explore("masking", maskSpecs,
		mdf.NewChooser(maskEval, p.maskSelector()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			i := int(spec.Hint)
			w, t := maskBranch(p.WindowLengths, p.Thresholds, i)
			return start.Then(masks[i], maskOp(ratios, w, t), 0.004)
		})
	// Scope 2: marking and detection exploration over the selected data.
	out := masked.Explore("analysis", outSpecs,
		mdf.NewChooser(detectionEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			i := int(spec.Hint)
			l, m, d := markBranch(p.MarkWindows, p.MagDiffs, p.Durations, i)
			marked := start.Then(marks[i], markOp(events, l, m), 0.003)
			return marked.Then("detect("+spec.Label+")",
				detectOp(d), 0.002)
		})
	out.Then("sink", mdf.Identity("detected"), 0.0001)
	return b.Build()
}

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
	names := maskNames(p.WindowLengths, p.Thresholds)
	maskSpecs := make([]mdf.BranchSpec, len(names))
	for i, name := range names {
		w, t := maskBranch(p.WindowLengths, p.Thresholds, i)
		maskSpecs[i] = mdf.BranchSpec{
			Label: mdf.Setting(name),
			// The masking kept-ratio falls monotonically in the
			// threshold; hint-sorting by (t, w) enables sorted-order
			// scheduling (Fig. 8 "first-4, sorted").
			Hint: t*1000 + float64(w),
		}
	}
	if len(maskSpecs) < 2 {
		return nil, fmt.Errorf("timeseries: flat MDF needs >= 2 masking branches")
	}
	eval := mdf.RatioEvaluator(p.Rows)
	eval.CostPerMB = 0.0002
	eval.Monotone = monotoneEval
	l, m, d := p.MarkWindows[0], p.MagDiffs[0], p.Durations[0]

	ratios, events := mdf.NewMemo(windowRatios), markMemo(mdf.NewMemo(windowMeans))
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.0002)
	// Hint is taken by the sort key, so the body finds its setting by
	// position: the builder builds the branches in order.
	j := 0
	masked := src.Explore("masking", maskSpecs, mdf.NewChooser(eval, sel),
		func(start *mdf.Node, _ mdf.BranchSpec) *mdf.Node {
			w, t := maskBranch(p.WindowLengths, p.Thresholds, j)
			name := names[j]
			j++
			return start.Then(name, maskOp(ratios, w, t), 0.004)
		})
	marked := masked.Then("mark", markOp(events, l, m), 0.003)
	detected := marked.Then("detect", detectOp(d), 0.002)
	detected.Then("sink", mdf.Identity("detected"), 0.0001)
	return b.Build()
}
