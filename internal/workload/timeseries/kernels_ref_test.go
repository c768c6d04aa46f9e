package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metadataflow/internal/dataset"
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

// sameDataset compares two operator outputs partition by partition: rows,
// bit for bit, and accounted sizes.
func sameDataset(t *testing.T, what string, got, want *dataset.Dataset) {
	t.Helper()
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("%s: %d partitions, want %d", what, len(got.Parts), len(want.Parts))
	}
	for i, w := range want.Parts {
		g := got.Parts[i]
		if g.VirtualBytes != w.VirtualBytes {
			t.Fatalf("%s: partition %d accounts %d bytes, want %d", what, i, g.VirtualBytes, w.VirtualBytes)
		}
		gr, wr := g.BoxedRows(), w.BoxedRows()
		if len(gr) != len(wr) {
			t.Fatalf("%s: partition %d has %d rows, want %d", what, i, len(gr), len(wr))
		}
		for j := range wr {
			if bits(gr[j]) != bits(wr[j]) {
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
// window, empty ones, and the windows Validate does not forbid (0, negative).
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	windows := []int{1, 2, 3, 5, 16, 300, 0, -2}
	thresholds := []float64{1.001, 1.1, 1, 0.5, 0, -1, math.Inf(1), math.NaN()}
	magDiffs := []float64{0.5, 2, 0, -1, math.NaN()}
	durations := []int{0, 1, 50, 1000, -5}
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 2, 4, 7, 40, 250}[trial%7]
		pts := awkwardSeries(rng, n)
		before := fmt.Sprint(pts)
		w, th := windows[rng.Intn(len(windows))], thresholds[rng.Intn(len(thresholds))]
		l, m := windows[rng.Intn(len(windows))], magDiffs[rng.Intn(len(magDiffs))]
		d := durations[rng.Intn(len(durations))]
		for _, in := range inputs(rng, pts) {
			what := fmt.Sprintf("trial %d, %s of %d points", trial, in.Name, n)
			masked := apply(t, maskOp(Params{}, w, th), in)
			sameDataset(t, fmt.Sprintf("%s: mask(w=%d,t=%g)", what, w, th), masked, refMask(in, w, th))
			for _, from := range []*dataset.Dataset{in, masked} {
				marked := apply(t, markOp(l, m), from)
				sameDataset(t, fmt.Sprintf("%s: mark(l=%d,m=%g) of %s", what, l, m, from.Name), marked, refMark(from, l, m))
				detected := apply(t, detectOp(d), marked)
				sameDataset(t, fmt.Sprintf("%s: detect(d=%d)", what, d), detected, refDetect(marked, d))
			}
		}
		if fmt.Sprint(pts) != before {
			t.Fatalf("trial %d: an operator wrote its input", trial)
		}
	}
}

// defaultSeries is the generator's series at Defaults(), which the kernel
// benchmarks run over.
func defaultSeries() *dataset.Dataset { return Generate(Defaults()) }

func BenchmarkMask(b *testing.B) {
	in := []*dataset.Dataset{defaultSeries()}
	op := maskOp(Params{}, 5, 1.001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMark(b *testing.B) {
	in := []*dataset.Dataset{defaultSeries()}
	op := markOp(6, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op(in); err != nil {
			b.Fatal(err)
		}
	}
}
