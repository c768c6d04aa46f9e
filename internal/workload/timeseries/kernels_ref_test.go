package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/mdf"
)

// The three operators as they were before mask and mark decided into a
// []bool and sized their output exactly: growing by append, a math.Min and a
// math.Max call per window element, over a private copy of the input. They
// are the reference the operators must agree with bit for bit.

func copyOf[T any](in *dataset.Dataset) []T {
	return append([]T(nil), dataset.Flatten[T](in)...)
}

func refMask(in *dataset.Dataset, w int, t float64) *dataset.Dataset {
	pts := copyOf[Point](in)
	var kept []Point
	for i := range pts {
		lo, hi := pts[i].V, pts[i].V
		for j := i - w + 1; j <= i; j++ {
			if j < 0 {
				continue
			}
			lo = math.Min(lo, pts[j].V)
			hi = math.Max(hi, pts[j].V)
		}
		if lo <= 0 {
			lo = 1e-9
		}
		if hi/lo > t {
			kept = append(kept, pts[i])
		}
	}
	out := dataset.FromSlice("masked", kept, outParts(in), 16)
	if in.NumRows() > 0 {
		out.SetVirtualBytes(in.VirtualBytes() * int64(len(kept)) / int64(in.NumRows()))
	}
	return out
}

func refMark(in *dataset.Dataset, l int, magDiff float64) *dataset.Dataset {
	pts := copyOf[Point](in)
	var events []Event
	for i := range pts {
		if i < l {
			continue
		}
		var sum float64
		for j := i - l; j < i; j++ {
			sum += pts[j].V
		}
		ref := sum / float64(l)
		if diff := math.Abs(pts[i].V - ref); diff > magDiff {
			events = append(events, Event{Start: pts[i].T, End: pts[i].T, Magnitude: pts[i].V - ref})
		}
	}
	out := dataset.FromSlice("events", events, outParts(in), 24)
	out.SetVirtualBytes(in.VirtualBytes() / 20)
	return out
}

func refDetect(in *dataset.Dataset, d int) *dataset.Dataset {
	var seqs []Event
	var cur *Event
	for _, e := range copyOf[Event](in) {
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
	return out
}

// bits renders a row with its floats as bit patterns, so that -0 differs
// from +0 and a NaN equals itself.
func bits(row any) string {
	switch r := row.(type) {
	case Point:
		return fmt.Sprintf("%d:%016x", r.T, math.Float64bits(r.V))
	case Event:
		return fmt.Sprintf("%d-%d:%016x", r.Start, r.End, math.Float64bits(r.Magnitude))
	}
	panic(fmt.Sprintf("unexpected row %T", row))
}

// sameBits is bits(a) == bits(b) without formatting either.
func sameBits(a, b any) bool {
	switch a := a.(type) {
	case Point:
		b, ok := b.(Point)
		return ok && a.T == b.T && math.Float64bits(a.V) == math.Float64bits(b.V)
	case Event:
		b, ok := b.(Event)
		return ok && a.Start == b.Start && a.End == b.End && math.Float64bits(a.Magnitude) == math.Float64bits(b.Magnitude)
	}
	return bits(a) == bits(b)
}

// sameDataset compares two operator outputs partition by partition: rows,
// bit for bit, and accounted sizes.
func sameDataset(t *testing.T, what string, got, want *dataset.Dataset) {
	t.Helper()
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("%s: %d partitions, want %d", what, len(got.Parts), len(want.Parts))
	}
	for i := range want.Parts {
		w := &want.Parts[i]
		g := &got.Parts[i]
		if g.VirtualBytes != w.VirtualBytes {
			t.Fatalf("%s: partition %d accounts %d bytes, want %d", what, i, g.VirtualBytes, w.VirtualBytes)
		}
		gr, wr := g.BoxedRows(), w.BoxedRows()
		if len(gr) != len(wr) {
			t.Fatalf("%s: partition %d has %d rows, want %d", what, i, len(gr), len(wr))
		}
		for j := range wr {
			if !sameBits(gr[j], wr[j]) {
				t.Fatalf("%s: partition %d row %d = %s, want %s", what, i, j, bits(gr[j]), bits(wr[j]))
			}
		}
	}
}

// awkwardSeries draws n points from a mixture that holds everything the
// window arithmetic treats specially: NaN, both zeros, both infinities,
// negative values, values a hair apart, and constant runs.
func awkwardSeries(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	level := 100.0
	for i := range pts {
		var v float64
		switch k := rng.Intn(40); {
		case k == 0:
			v = math.NaN()
		case k == 1:
			v = 0
		case k == 2:
			v = math.Copysign(0, -1)
		case k == 3:
			v = math.Inf(1 - 2*rng.Intn(2))
		case k < 8:
			v = -rng.Float64() * 10
		case k < 12:
			v = 1e-9 * rng.Float64()
		case k < 22:
			v = level // a constant run
		default:
			level += rng.NormFloat64()
			v = level + rng.NormFloat64()*0.2
		}
		pts[i] = Point{T: int64(3 * i), V: v}
	}
	return pts
}

// zeroSeries draws n points that are all zeros, in runs of +0,−0 and of
// −0,+0 and constant runs of either: every window's extremes are ±0, the one
// place where min and max may differ from the comparisons by a sign.
func zeroSeries(rng *rand.Rand, n int) []Point {
	pos, neg := 0.0, math.Copysign(0, -1)
	runs := [][]float64{{pos, neg}, {neg, pos}, {pos, pos, pos}, {neg, neg, neg}}
	pts := make([]Point, 0, n+2)
	for len(pts) < n {
		for _, v := range runs[rng.Intn(len(runs))] {
			pts = append(pts, Point{T: int64(3 * len(pts)), V: v})
		}
	}
	return pts[:n]
}

// inputs lays a series out the ways an operator may meet it: cut from one
// column (read as a view), concatenated (read as a copy), and with no
// partition at all, as a choose that selected nothing emits.
func inputs(rng *rand.Rand, pts []Point) []*dataset.Dataset {
	d := dataset.FromSlice("in", pts, rng.Intn(5)+1, 16)
	d.SetVirtualBytes(rng.Int63n(1 << 32))
	half := len(pts) / 2
	cat := dataset.Concat("cat", dataset.FromSlice("a", pts[:half], 2, 16), dataset.FromSlice("b", pts[half:], 1, 16))
	cat.SetVirtualBytes(rng.Int63n(1 << 32))
	out := []*dataset.Dataset{d, d.Alias("alias"), cat}
	if len(pts) == 0 {
		out = append(out, dataset.New("none"))
	}
	return out
}

func apply(t *testing.T, op func([]*dataset.Dataset) (*dataset.Dataset, error), in *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	out, err := op([]*dataset.Dataset{in})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKernelsMatchReference compares mask, mark and detect with the loops
// they replaced on random awkward series, among them series shorter than the
// window, empty ones, and the windows Validate does not forbid (0, negative),
// and on series of ±0 alone, whose every window's extremes are zeros of
// either sign, at every threshold, −0 among them.
// Everything a trial runs shares one graph's memos, as its branches do:
// every threshold of two window lengths, every magDiff of two mark windows,
// each layout of the series, and then a second series of the same length,
// whose values must not be read from the first's entries.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	windows := []int{1, 2, 3, 5, 16, 300, 0, -2}
	thresholds := []float64{1.001, 1.1, 1, 0.5, 0, math.Copysign(0, -1), -1, math.Inf(1), math.NaN()}
	magDiffs := []float64{0.5, 2, 0, -1, math.NaN()}
	durations := []int{0, 1, 50, 1000, -5}
	two := func() []int {
		i := rng.Intn(len(windows))
		return []int{windows[i], windows[(i+1+rng.Intn(len(windows)-1))%len(windows)]}
	}
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 2, 4, 7, 40, 250}[trial%7]
		ws, ls := two(), two()
		// mark and detect read the output of this one mask as well as the
		// input.
		mth := thresholds[rng.Intn(len(thresholds))]
		d := durations[rng.Intn(len(durations))]
		ratios, events := mdf.NewMemo(windowRatios), markMemo(mdf.NewMemo(windowMeans))
		for series := 0; series < 2; series++ {
			pts := awkwardSeries(rng, n)
			if trial%6 == 5 {
				pts = zeroSeries(rng, n)
			}
			before := fmt.Sprint(pts)
			for _, in := range inputs(rng, pts) {
				what := fmt.Sprintf("trial %d, series %d, %s of %d points", trial, series, in.Name, n)
				var masked *dataset.Dataset
				for _, w := range ws {
					for _, th := range thresholds {
						out := apply(t, maskOp(ratios, w, th), in)
						sameDataset(t, fmt.Sprintf("%s: mask(w=%d,t=%g)", what, w, th), out, refMask(in, w, th))
						if w == ws[0] && math.Float64bits(th) == math.Float64bits(mth) {
							masked = out
						}
					}
				}
				for _, from := range []*dataset.Dataset{in, masked} {
					for _, l := range ls {
						for _, m := range magDiffs {
							marked := apply(t, markOp(events, l, m), from)
							sameDataset(t, fmt.Sprintf("%s: mark(l=%d,m=%g) of %s", what, l, m, from.Name), marked, refMark(from, l, m))
							detected := apply(t, detectOp(d), marked)
							sameDataset(t, fmt.Sprintf("%s: detect(d=%d)", what, d), detected, refDetect(marked, d))
						}
					}
				}
			}
			if fmt.Sprint(pts) != before {
				t.Fatalf("trial %d: an operator wrote its input", trial)
			}
		}
	}
}

// TestSiblingMasksShareOneMemo runs the 16 mask branches of two window
// lengths on goroutines over one memo, as the engine's pool runs sibling
// branches: each must equal the reference, and the memo must make one window
// pass per window length.
func TestSiblingMasksShareOneMemo(t *testing.T) {
	in := dataset.FromSlice("in", awkwardSeries(rand.New(rand.NewSource(30)), 2000), 4, 16)
	in.SetVirtualBytes(1 << 30)
	windows := []int{2, 5}
	thresholds := []float64{1.0001, 1.001, 1.01, 1.1, 1, 0.5, 2, math.Inf(1)}
	var passes atomic.Int32
	ratios := mdf.NewMemo(func(w int, pts []Point) []float64 {
		passes.Add(1)
		return windowRatios(w, pts)
	})
	outs := make([]*dataset.Dataset, len(windows)*len(thresholds))
	errs := make([]error, len(outs))
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := maskOp(ratios, windows[i/len(thresholds)], thresholds[i%len(thresholds)])
			outs[i], errs[i] = op([]*dataset.Dataset{in})
		}()
	}
	wg.Wait()
	for i, out := range outs {
		w, th := windows[i/len(thresholds)], thresholds[i%len(thresholds)]
		if errs[i] != nil {
			t.Fatalf("mask(w=%d,t=%g): %v", w, th, errs[i])
		}
		sameDataset(t, fmt.Sprintf("mask(w=%d,t=%g)", w, th), out, refMask(in, w, th))
	}
	if n := int(passes.Load()); n != len(windows) {
		t.Errorf("the memo made %d window passes, want one per window length (%d)", n, len(windows))
	}
}

// TestPanickingWindowPassLeavesNoEntry: a window pass that panics part-way
// (an injected fault, a bug) leaves the memo without an entry and unlocked,
// so the next branch computes the values itself, and the one after reads
// what it stored.
func TestPanickingWindowPassLeavesNoEntry(t *testing.T) {
	var passes atomic.Int32
	ratios := mdf.NewMemo(func(w int, pts []Point) []float64 {
		if passes.Add(1) == 1 {
			panic("part-way")
		}
		return windowRatios(w, pts)
	})
	pts := awkwardSeries(rand.New(rand.NewSource(7)), 40)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the first window pass did not panic")
			}
		}()
		ratios.Get(3, pts)
	}()
	got, want := ratios.Get(3, pts), windowRatios(3, pts)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("ratio %d = %v after a panicking pass, want %v", i, got[i], want[i])
		}
	}
	if again := ratios.Get(3, pts); &again[0] != &got[0] {
		t.Error("a third branch did not read the ratios the second one stored")
	}
	if n := passes.Load(); n != 2 {
		t.Errorf("%d window passes, want 2: the panicking one and the next", n)
	}
}

// TestSiblingMarksShareOneMemo runs the 16 analysis branches of BuildMDF at
// Defaults() — mark and detect at every (l, m, d) — on goroutines over one
// memo, on the output of a mask, as the engine's pool runs them on the
// masking choose's selection. Each output must equal the reference, each
// mark output must be a dataset of its own, and the branches of one (l, m)
// must read one events slice: 4 distinct slices are 4 mark passes.
func TestSiblingMarksShareOneMemo(t *testing.T) {
	p := Defaults()
	series := dataset.FromSlice("in", awkwardSeries(rand.New(rand.NewSource(40)), 2000), 4, 16)
	series.SetVirtualBytes(1 << 30)
	events := markMemo(mdf.NewMemo(windowMeans))
	in := apply(t, maskOp(mdf.NewMemo(windowRatios), 2, 1.001), series)
	type branch struct {
		l       int
		m       float64
		d       int
		marked  *dataset.Dataset
		detects *dataset.Dataset
		err     error
	}
	var branches []*branch
	for _, l := range p.MarkWindows {
		for _, m := range p.MagDiffs {
			for _, d := range p.Durations {
				branches = append(branches, &branch{l: l, m: m, d: d})
			}
		}
	}
	if len(branches) != 16 {
		t.Fatalf("%d analysis branches at Defaults(), want 16", len(branches))
	}
	var wg sync.WaitGroup
	for _, b := range branches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.marked, b.err = markOp(events, b.l, b.m)([]*dataset.Dataset{in}); b.err == nil {
				b.detects, b.err = detectOp(b.d)([]*dataset.Dataset{b.marked})
			}
		}()
	}
	wg.Wait()
	owners := map[*Event]string{}
	ids := map[dataset.ID]bool{}
	for _, b := range branches {
		what := fmt.Sprintf("mark(l=%d,m=%g,d=%d)", b.l, b.m, b.d)
		if b.err != nil {
			t.Fatalf("%s: %v", what, b.err)
		}
		sameDataset(t, what, b.marked, refMark(in, b.l, b.m))
		sameDataset(t, what+": detect", b.detects, refDetect(b.marked, b.d))
		if ids[b.marked.ID] {
			t.Fatalf("%s: dataset %d is another branch's", what, b.marked.ID)
		}
		ids[b.marked.ID] = true
		evs := dataset.Flatten[Event](b.marked)
		if len(evs) == 0 {
			t.Fatalf("%s: no events; the series must have some", what)
		}
		setting := fmt.Sprintf("l=%d,m=%g", b.l, b.m)
		if other, ok := owners[&evs[0]]; ok && other != setting {
			t.Fatalf("%s reads the events of %s", what, other)
		}
		owners[&evs[0]] = setting
	}
	if len(owners) != 4 {
		t.Errorf("the 16 branches read %d events slices, want one per (l, m): 4 mark passes", len(owners))
	}
}

// TestPanickingMarkPassLeavesNoEntry: a mark pass that panics part-way (here
// over window means too short for the input) leaves no events entry and the
// memo unlocked, and keeps the means entry it read; the next branch over the
// series finds the events itself.
func TestPanickingMarkPassLeavesNoEntry(t *testing.T) {
	pts := awkwardSeries(rand.New(rand.NewSource(8)), 40)
	var meanPasses atomic.Int32
	means := mdf.NewMemo(func(l int, pts []Point) []float64 {
		if meanPasses.Add(1) == 1 {
			return make([]float64, 5)
		}
		return windowMeans(l, pts)
	})
	events := markMemo(means)
	s := markSetting{l: 3, magDiff: math.Float64bits(0.5)}
	panics := func(pts []Point) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		events.Get(s, pts)
		return false
	}
	if !panics(pts) {
		t.Fatal("a mark pass over too few means did not panic")
	}
	if got := means.Get(3, pts); len(got) != 5 || meanPasses.Load() != 1 {
		t.Fatalf("the means memo answers %d means after %d passes, want the 5 the panicking mark pass stored, from 1 pass",
			len(got), meanPasses.Load())
	}
	// No events entry: the next branch over the same points runs the pass
	// again, over the same means, and panics again instead of blocking.
	if !panics(pts) {
		t.Fatal("a second mark pass returned events: the panicking pass left an entry")
	}
	fresh := append([]Point(nil), pts...)
	want := dataset.Flatten[Event](refMark(dataset.FromSlice("in", fresh, 1, 16), 3, 0.5))
	if len(want) == 0 {
		t.Fatal("no events; the series must have some")
	}
	got := events.Get(s, fresh)
	if len(got) != len(want) {
		t.Fatalf("%d events after a panicking pass, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("event %d = %s after a panicking pass, want %s", i, bits(got[i]), bits(want[i]))
		}
	}
	if again := events.Get(s, fresh); &again[0] != &got[0] {
		t.Error("the next branch did not read the events the last one stored")
	}
}

// TestLabelsSpellLikeSprintf holds the branch names and labels to the fmt
// verbs they replaced, on the values where %g is easiest to get wrong.
func TestLabelsSpellLikeSprintf(t *testing.T) {
	floats := []float64{1.001, 1.0005, 0.5, 2, 0, math.Copysign(0, -1), -1, 1e-4, 1e-5, 1e-7, 1e21, 123456789, 1e5, 1e6,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64}
	ints := []int{0, 1, -2, 16, 300, math.MaxInt64, math.MinInt64}
	negs := make([]int, len(ints))
	for i, v := range ints {
		negs[i] = -v
	}
	masks, marks := maskNames(ints, floats), markNames(ints, floats, negs)
	if len(masks) != len(ints)*len(floats) || len(marks) != len(ints)*len(floats)*len(negs) {
		t.Fatalf("%d mask and %d mark names", len(masks), len(marks))
	}
	n := 0
	for _, w := range ints {
		for _, f := range floats {
			name := masks[n]
			n++
			if want := fmt.Sprintf("mask(w=%d,t=%g)", w, f); name != want {
				t.Errorf("mask name = %q, want %q", name, want)
			}
			if got, want := mdf.Setting(name), fmt.Sprintf("w=%d,t=%g", w, f); got != want {
				t.Errorf("Setting(%q) = %q, want %q", name, got, want)
			}
		}
	}
	n = 0
	for _, l := range ints {
		for _, f := range floats {
			for _, d := range negs {
				name := marks[n]
				n++
				if want := fmt.Sprintf("mark(l=%d,m=%g,d=%d)", l, f, d); name != want {
					t.Errorf("mark name = %q, want %q", name, want)
				}
				if got, want := mdf.Setting(name), fmt.Sprintf("l=%d,m=%g,d=%d", l, f, d); got != want {
					t.Errorf("Setting(%q) = %q, want %q", name, got, want)
				}
			}
		}
	}
}

// defaultSeries is the generator's series at Defaults(), which the kernel
// benchmarks run over.
func defaultSeries() *dataset.Dataset { return Generate(Defaults()) }

// BenchmarkWindowRatios is mask's window pass alone, at the job's two window
// lengths over the Defaults() series' 20 000 points.
func BenchmarkWindowRatios(b *testing.B) {
	pts := dataset.Flatten[Point](defaultSeries())
	for _, w := range Defaults().WindowLengths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				windowRatios(w, pts)
			}
		})
	}
}

// BenchmarkMask and BenchmarkMark are one branch with a memo of its own: the
// window pass included.
func BenchmarkMask(b *testing.B) {
	in := []*dataset.Dataset{defaultSeries()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maskOp(mdf.NewMemo(windowRatios), 5, 1.001)(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMark(b *testing.B) {
	in := []*dataset.Dataset{defaultSeries()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := markOp(markMemo(mdf.NewMemo(windowMeans)), 6, 0.5)(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaskSiblings is the 16 thresholds of one window length over one
// memo, as 16 sibling branches run them: one window pass, 16 selections.
// Compare with 16 × BenchmarkMask.
func BenchmarkMaskSiblings(b *testing.B) {
	in := []*dataset.Dataset{defaultSeries()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratios := mdf.NewMemo(windowRatios)
		for k := 0; k < 16; k++ {
			if _, err := maskOp(ratios, 5, 1+0.0005*float64(k+1))(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMarkSiblings is the 16 analysis branches of BuildMDF at
// Defaults() over one memo: 2 window means, 4 mark passes, 16 datasets.
// Compare with 16 × BenchmarkMark.
func BenchmarkMarkSiblings(b *testing.B) {
	p := Defaults()
	in := []*dataset.Dataset{defaultSeries()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := markMemo(mdf.NewMemo(windowMeans))
		for _, l := range p.MarkWindows {
			for _, m := range p.MagDiffs {
				for range p.Durations {
					if _, err := markOp(events, l, m)(in); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}
