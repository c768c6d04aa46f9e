package dataset

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// counted is the argument of a deferred column in these tests: the values
// it fills to, and the count of its fills.
type counted struct {
	vals  []float64
	fills *atomic.Int64
}

// fillCounted appends a.vals to dst and counts the fill.
func fillCounted(a counted, dst []float64) []float64 {
	a.fills.Add(1)
	return append(dst, a.vals...)
}

// deferredOf returns a deferred dataset over vals in parts windows, as
// FromSlice would cut them, and the count of its fills.
func deferredOf(vals []float64, parts int) (*Dataset, *atomic.Int64) {
	fills := new(atomic.Int64)
	return Defer("d", len(vals), fillCounted, counted{vals: vals, fills: fills}, parts, 8), fills
}

// seq returns 0.5, 1.5, … as n values.
func seq(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i) + 0.5
	}
	return vals
}

// A deferred dataset reads as FromSlice over the same values through every
// reader, each reader the first to read it; each fills it once.
func TestDeferredMatchesFromSlice(t *testing.T) {
	readers := []struct {
		name string
		read func(d *Dataset) any
	}{
		{"Values", func(d *Dataset) any {
			var out [][]float64
			for i := range d.Parts {
				out = append(out, Values[float64](&d.Parts[i]))
			}
			return out
		}},
		{"Values[Row]", func(d *Dataset) any {
			var out [][]Row
			for i := range d.Parts {
				out = append(out, Values[Row](&d.Parts[i]))
			}
			return out
		}},
		{"Flatten", func(d *Dataset) any { return Flatten[float64](d) }},
		{"Rows", func(d *Dataset) any { return d.Rows() }},
		{"BoxedRows", func(d *Dataset) any {
			var out [][]Row
			for i := range d.Parts {
				out = append(out, d.Parts[i].BoxedRows())
			}
			return out
		}},
		{"Box", func(d *Dataset) any {
			d.Box()
			var out [][]Row
			for i := range d.Parts {
				out = append(out, d.Parts[i].Rows)
			}
			return out
		}},
		{"BoxPart", func(d *Dataset) any {
			d.BoxPart(len(d.Parts) - 1)
			return d.Parts[len(d.Parts)-1].Rows
		}},
		{"Concat", func(d *Dataset) any { return Flatten[float64](Concat("c", d, d.Alias("again"))) }},
		{"Concat of two", func(d *Dataset) any {
			other, _ := deferredOf(seq(7), 2)
			return Flatten[float64](Concat("c", d, other))
		}},
		{"Alias", func(d *Dataset) any { return Flatten[float64](d.Alias("a")) }},
		{"SetVirtualBytes", func(d *Dataset) any {
			d.SetVirtualBytes(1001)
			var out []int64
			for i := range d.Parts {
				out = append(out, d.Parts[i].VirtualBytes)
			}
			return append(out, d.VirtualBytes())
		}},
	}
	for _, n := range []int{0, 1, 5, 37} {
		for _, parts := range []int{1, 3, 8} {
			for _, r := range readers {
				vals := seq(n)
				d, fills := deferredOf(vals, parts)
				want := FromSlice("d", vals, parts, 8)
				got := r.read(d)
				if w := r.read(want); !reflect.DeepEqual(got, w) {
					t.Errorf("%d rows in %d parts: %s = %v, FromSlice's %v", n, parts, r.name, got, w)
				}
				_ = r.read(d)
				if f := fills.Load(); f > 1 {
					t.Errorf("%d rows in %d parts: %s twice filled the column %d times", n, parts, r.name, f)
				}
			}
		}
	}
}

// Flatten of a deferred dataset is a view of its one fill: a second read
// copies nothing and returns the same values.
func TestDeferredFlattenIsAView(t *testing.T) {
	d, fills := deferredOf(seq(100), 4)
	first := Flatten[float64](d)
	var again []float64
	if allocs := testing.AllocsPerRun(10, func() { again = Flatten[float64](d) }); allocs != 0 {
		t.Errorf("a second Flatten allocated %.0f times", allocs)
	}
	if len(first) != 100 || &again[0] != &first[0] || cap(first) != len(first) {
		t.Error("Flatten of a deferred dataset must view its filled column, capacity clipped")
	}
	if p := &d.Parts[1]; &Values[float64](p)[0] != &first[p.Lo] {
		t.Error("Values of a deferred partition must be its window on the filled column")
	}
	if f := fills.Load(); f != 1 {
		t.Errorf("%d fills, want 1", f)
	}
}

// What reads the count, the accounted size or the partitions alone — and
// datasets derived from a deferred one — never fills it.
func TestDeferredCountsWithoutFilling(t *testing.T) {
	d, fills := deferredOf(seq(50), 4)
	if d.NumRows() != 50 || d.VirtualBytes() != 400 || d.Parts[0].Col.Len() != 50 {
		t.Fatalf("rows = %d, bytes = %d, Len = %d, want 50, 400 and 50", d.NumRows(), d.VirtualBytes(), d.Parts[0].Col.Len())
	}
	d.SetVirtualBytes(999)
	a := d.Alias("a")
	c := Concat("c", d, a)
	if a.NumRows() != 50 || c.NumRows() != 100 || c.VirtualBytes() != 2*999 || d.Parts[2].NumRows() != 12 {
		t.Fatal("a derived dataset's counts differ from its origin's")
	}
	_ = c.String()
	if f := fills.Load(); f != 0 {
		t.Errorf("counting and sizing filled the column %d times", f)
	}
	// The column holds its argument until the fill, and drops it after.
	col := d.Parts[0].Col.(*deferred[float64, counted])
	if col.arg.vals == nil {
		t.Fatal("an unfilled column lost its argument")
	}
	_ = Flatten[float64](c)
	if f := fills.Load(); f != 1 {
		t.Errorf("reading a Concat of a dataset and its alias filled their column %d times, want 1", f)
	}
	if col.arg.vals != nil || col.arg.fills != nil {
		t.Error("a filled column still holds what it was filled from")
	}
}

// Readers on several goroutines that reach a deferred column at once fill
// it exactly once, and all read the same values (run under -race).
func TestDeferredFillsOnceConcurrently(t *testing.T) {
	const readers = 8
	for trial := 0; trial < 20; trial++ {
		d, fills := deferredOf(seq(64), 4)
		views := make([][]float64, readers)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := range readers {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				switch g % 3 {
				case 0:
					views[g] = Flatten[float64](d)
				case 1:
					_ = Values[float64](&d.Parts[g%4])
					views[g] = Flatten[float64](d)
				case 2:
					_ = d.Parts[g%4].BoxedRows()
					views[g] = Flatten[float64](d)
				}
			}()
		}
		start.Done()
		done.Wait()
		if f := fills.Load(); f != 1 {
			t.Fatalf("trial %d: %d concurrent readers filled the column %d times", trial, readers, f)
		}
		for g := 1; g < readers; g++ {
			if &views[g][0] != &views[0][0] {
				t.Fatalf("trial %d: reader %d read another fill than reader 0", trial, g)
			}
		}
	}
}

// A fill that appends another number of values than the column has rows is
// a bug in its caller, and panics rather than cut the partitions short.
func TestDeferredFillOfWrongLengthPanics(t *testing.T) {
	short := func(_ struct{}, dst []float64) []float64 { return append(dst, 1) }
	d := Defer("d", 3, short, struct{}{}, 1, 8)
	defer func() {
		if recover() == nil {
			t.Error("a fill of 1 value into a column of 3 rows did not panic")
		}
	}()
	_ = Flatten[float64](d)
}
