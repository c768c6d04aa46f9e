package dataset

import (
	"testing"
	"testing/quick"
)

func intRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// cut builds a dataset over vals cut at the given row offsets: partition i
// holds rows [ends[i-1], ends[i]), the first one starting at row 0.
func cut[T any](name string, vals []T, ends ...int) *Dataset {
	parts := make([]Partition, len(ends))
	lo := 0
	for i, hi := range ends {
		parts[i] = Partition{Lo: lo, Hi: hi}
		lo = hi
	}
	return Over(name, Col[T](vals), parts)
}

// col returns the Column of vals, a header of its own.
func col[T any](vals []T) Column {
	c := Col[T](vals)
	return &c
}

func TestFromRowsPartitioning(t *testing.T) {
	d := FromRows("t", intRows(10), 3, 8)
	if d.NumPartitions() != 3 {
		t.Fatalf("partitions = %d, want 3", d.NumPartitions())
	}
	if d.NumRows() != 10 {
		t.Fatalf("rows = %d, want 10", d.NumRows())
	}
	if d.VirtualBytes() != 80 {
		t.Fatalf("virtual bytes = %d, want 80", d.VirtualBytes())
	}
	for i := range d.Parts {
		p := &d.Parts[i]
		if _, ok := p.Col.(*Col[Row]); !ok || p.Rows != nil {
			t.Fatalf("partition %d: FromRows must cut windows on a Col[Row] with no boxed view", i)
		}
	}
}

func TestFromRowsPanicsOnZeroParts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows("t", intRows(3), 0, 1)
}

func TestRowsPreservesOrder(t *testing.T) {
	d := FromRows("t", intRows(17), 4, 1)
	for i, r := range d.Rows() {
		if r.(int) != i {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestFreshIDs(t *testing.T) {
	a := New("a")
	b := New("b")
	if a.ID == b.ID {
		t.Fatal("dataset IDs must be unique")
	}
}

func TestConcatCombinesPartitions(t *testing.T) {
	a := FromRows("a", intRows(4), 2, 10)
	b := FromRows("b", intRows(6), 3, 10)
	c := Concat("c", a, nil, b)
	if c.NumPartitions() != 5 {
		t.Fatalf("partitions = %d, want 5", c.NumPartitions())
	}
	if c.NumRows() != 10 {
		t.Fatalf("rows = %d, want 10", c.NumRows())
	}
	if c.VirtualBytes() != a.VirtualBytes()+b.VirtualBytes() {
		t.Fatal("concat must preserve total virtual size")
	}
	if c.ID == a.ID || c.ID == b.ID {
		t.Fatal("concat must mint a fresh ID")
	}
}

func TestSetVirtualBytesSpreadsExactly(t *testing.T) {
	d := FromRows("t", intRows(9), 4, 0)
	d.SetVirtualBytes(1003)
	if got := d.VirtualBytes(); got != 1003 {
		t.Fatalf("total = %d, want 1003", got)
	}
}

func TestPartKeyIdentity(t *testing.T) {
	d := FromRows("t", intRows(4), 2, 1)
	if d.Key(0) == d.Key(1) {
		t.Fatal("partition keys must differ by index")
	}
	e := FromRows("t", intRows(4), 2, 1)
	if d.Key(0) == e.Key(0) {
		t.Fatal("partition keys must differ by dataset")
	}
}

// Property: for any row count and partition count, FromRows loses no rows,
// assigns every row exactly once, and SetVirtualBytes distributes exactly.
func TestFromRowsProperties(t *testing.T) {
	f := func(nRows uint8, nParts uint8, total uint32) bool {
		n := int(nRows)
		p := int(nParts)%8 + 1
		d := FromRows("q", intRows(n), p, 1)
		if d.NumRows() != n || d.NumPartitions() != p {
			return false
		}
		for i, r := range d.Rows() {
			if r.(int) != i {
				return false
			}
		}
		d.SetVirtualBytes(int64(total))
		return d.VirtualBytes() == int64(total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: concatenation is associative with respect to rows and sizes.
func TestConcatAssociativeProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		da := FromRows("a", intRows(int(a)), int(a)%3+1, 2)
		db := FromRows("b", intRows(int(b)), int(b)%3+1, 3)
		dc := FromRows("c", intRows(int(c)), int(c)%3+1, 4)
		left := Concat("l", Concat("ab", da, db), dc)
		right := Concat("r", da, Concat("bc", db, dc))
		if left.NumRows() != right.NumRows() {
			return false
		}
		return left.VirtualBytes() == right.VirtualBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	d := FromRows("t", intRows(4), 2, 8)
	if s := d.String(); s == "" {
		t.Error("empty dataset string")
	}
	if s := d.Key(1).String(); s == "" {
		t.Error("empty part key string")
	}
	if d.Parts[0].NumRows() != 2 {
		t.Errorf("partition rows = %d, want 2", d.Parts[0].NumRows())
	}
}

func TestSetVirtualBytesEmptyDataset(t *testing.T) {
	d := New("empty")
	d.SetVirtualBytes(100) // must not panic
	if d.VirtualBytes() != 0 {
		t.Error("empty dataset cannot hold bytes")
	}
}

// Neighbouring partitions are windows on one backing array; what Values
// returns has its capacity clipped, so that growing partition i cannot
// overwrite the first row of partition i+1.
func TestAppendToPartitionLeavesNeighbourIntact(t *testing.T) {
	boxed := FromRows("t", intRows(10), 2, 1)
	_ = append(Values[Row](&boxed.Parts[0]), Row(-1))
	boxed.Box()
	_ = append(boxed.Parts[0].Rows, Row(-2))
	if got := Values[Row](&boxed.Parts[1])[0].(int); got != 5 {
		t.Errorf("FromRows: append to partition 0 overwrote partition 1's first row with %d", got)
	}

	vals := func() []float64 { return []float64{0, 1, 2, 3, 4, 5, 6, 7} }
	for _, d := range []*Dataset{
		FromSlice("FromSlice", vals(), 4, 8),
		Over("Over", Col[float64](vals()), Windows(8, 3, 8)),
		cut("cut", vals(), 1, 1, 5, 8),
		cut("cut", vals(), 3, 8).Alias("Alias of a cut"),
	} {
		for i := 0; i+1 < len(d.Parts); i++ {
			next := &d.Parts[i+1]
			if next.NumRows() == 0 {
				continue
			}
			want := Values[float64](next)[0]
			_ = append(Values[float64](&d.Parts[i]), -1)
			if got := Values[float64](next)[0]; got != want {
				t.Errorf("%s: append to partition %d overwrote partition %d's first row %g with %g", d.Name, i, i+1, want, got)
			}
		}
	}
}

func TestColumnarPartitionsStayUnboxedUntilBox(t *testing.T) {
	d := FromSlice("t", []float64{0.5, 1.5, 2.5, 3.5, 4.5}, 3, 8)
	if d.NumRows() != 5 || d.VirtualBytes() != 40 {
		t.Fatalf("rows = %d, bytes = %d, want 5 and 40", d.NumRows(), d.VirtualBytes())
	}
	for i := range d.Parts {
		p := &d.Parts[i]
		if p.Col == nil || p.Rows != nil {
			t.Fatalf("partition %d: a typed dataset must be columnar with no boxed view", i)
		}
	}
	// Reading boxed rows must not fill the view.
	if rows := d.Rows(); len(rows) != 5 || rows[4].(float64) != 4.5 {
		t.Fatalf("Rows() = %v", rows)
	}
	if rows := d.Parts[2].BoxedRows(); len(rows) != 2 || rows[0].(float64) != 3.5 {
		t.Fatalf("BoxedRows() = %v", rows)
	}
	if d.Parts[2].Rows != nil {
		t.Fatal("a read filled the boxed view")
	}

	// Box fills the view of an alias only, and once.
	a, b := d.Alias("a"), d.Alias("b")
	a.Box()
	first := a.Parts[0].Rows
	if len(first) != 1 || first[0].(float64) != 0.5 {
		t.Fatalf("boxed view of partition 0 = %v", first)
	}
	a.Box()
	if &a.Parts[0].Rows[0] != &first[0] {
		t.Error("a second Box re-boxed the partition")
	}
	for _, o := range []*Dataset{d, b} {
		for i := range o.Parts {
			p := &o.Parts[i]
			if p.Rows != nil {
				t.Errorf("boxing an alias wrote partition %d of %s", i, o.Name)
			}
		}
	}
	if a.ID == d.ID || a.VirtualBytes() != d.VirtualBytes() {
		t.Error("an alias has a fresh ID and its origin's accounted size")
	}
	a.SetVirtualBytes(20)
	if d.VirtualBytes() != 40 || b.VirtualBytes() != 40 {
		t.Error("resizing an alias resized its origin or its sibling")
	}
}

// Values and Flatten read windows on boxed and on typed columns alike.
func TestValuesAcrossLayouts(t *testing.T) {
	boxed := FromRows("b", []Row{1.0, 2.0, 3.0}, 2, 8)
	typed := FromSlice("t", []float64{1, 2, 3}, 2, 8)
	for _, d := range []*Dataset{boxed, typed} {
		got := Flatten[float64](d)
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Errorf("%s: Flatten[float64] = %v", d.Name, got)
		}
		rows := Flatten[Row](d)
		if len(rows) != 3 || rows[1].(float64) != 2 {
			t.Errorf("%s: Flatten[Row] = %v", d.Name, rows)
		}
	}
	p := &typed.Parts[1]
	c := *p.Col.(*Col[float64])
	if vals := Values[float64](p); len(vals) != p.NumRows() || cap(vals) != len(vals) || &vals[0] != &c[p.Lo] {
		t.Error("Values of a Col[T] partition must be its window on the column, clipped, not a copy")
	}
	bp := &boxed.Parts[1]
	if rows := Values[Row](bp); &rows[0] != &(*bp.Col.(*Col[Row]))[bp.Lo] || cap(rows) != len(rows) {
		t.Error("Values[Row] of a Col[Row] partition must be its window on the column, clipped, not a copy")
	}
	if rows := Flatten[Row](boxed); &rows[0] != &(*bp.Col.(*Col[Row]))[0] {
		t.Error("Flatten[Row] of FromRows must view its column, not copy it")
	}
	boxed.Box()
	if rows := Values[Row](bp); &bp.Rows[0] != &rows[0] {
		t.Error("Box must make a Col[Row] window its own view, not a copy")
	}
	if got := Flatten[float64](New("empty")); len(got) != 0 {
		t.Errorf("Flatten of an empty dataset = %v", got)
	}
}

// flattenOld is Flatten as it was before it returned views: always a copy.
// It is what a view must read as.
func flattenOld[T any](d *Dataset) []T {
	out := make([]T, 0, d.NumRows())
	for i := range d.Parts {
		out = append(out, Values[T](&d.Parts[i])...)
	}
	return out
}

// isView reports whether got is vals itself rather than a copy of it.
func isView(got, vals []float64) bool {
	return len(got) > 0 && len(got) == len(vals) && &got[0] == &vals[0]
}

// Flatten returns the partitions' column while they are its consecutive
// windows from its first row to its last, and a copy in every other case;
// either way it reads as the copy did, never longer or shorter than NumRows,
// and a view cannot be appended into its column's spare capacity.
func TestFlattenViewsAndCopies(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	fresh := func(parts int) *Dataset { return FromSlice("t", vals, parts, 8) }
	win := func(c Column, lo, hi int) Partition { return Partition{Col: c, Lo: lo, Hi: hi, VirtualBytes: 24} }
	replaced := func(p Partition) *Dataset {
		d := fresh(3)
		d.Parts[1] = p
		return d
	}
	windows := func(bounds ...[2]int) *Dataset {
		d := New("windows")
		for _, b := range bounds {
			d.Parts = append(d.Parts, win(col(vals), b[0], b[1]))
		}
		return d
	}
	other := []float64{3, 4, 5}
	cutd := cut("cut", vals, 0, 4, 4, 10)
	short := cut("short", vals, 2, 5) // ends before the column does
	cases := []struct {
		name string
		d    *Dataset
		view bool
	}{
		{"FromSlice", fresh(3), true},
		{"FromSlice with more partitions than rows", fresh(16), true},
		{"Alias", fresh(3).Alias("a"), true},
		{"Alias of an Alias, resized and boxed", func() *Dataset {
			a := fresh(4).Alias("a").Alias("b")
			a.SetVirtualBytes(1 << 20)
			a.Box()
			return a
		}(), true},
		{"a cut with empty partitions", cutd, true},
		{"Alias of a cut", cutd.Alias("a"), true},
		{"Concat of one dataset", Concat("c", fresh(3)), true},
		{"a partition replaced by the same window of the column", replaced(win(col(vals), 3, 6)), true},
		{"hand-assembled windows that cover the column", windows([2]int{0, 7}, [2]int{7, 10}), true},
		{"a cut that stops short of the column", short, false},
		{"shifted windows", windows([2]int{1, 4}, [2]int{4, 10}), false},
		{"overlapping windows", windows([2]int{0, 6}, [2]int{4, 10}), false},
		{"a partition replaced by a slice of the column", replaced(win(col(vals[3:6]), 0, 3)), false},
		{"Concat", Concat("c", fresh(2), fresh(2)), false},

		{"a replaced partition", replaced(win(col(other), 0, 3)), false},
		{"a partition replaced by one on boxed rows", replaced(win(col([]Row{3.0, 4.0, 5.0}), 0, 3)), false},
		{"a dropped partition", func() *Dataset { d := fresh(3); d.Parts = d.Parts[:2]; return d }(), false},
		{"swapped partitions", func() *Dataset { d := fresh(2); d.Parts[0], d.Parts[1] = d.Parts[1], d.Parts[0]; return d }(), false},
		{"an added partition", func() *Dataset {
			d := fresh(2)
			d.Parts = append(d.Parts, win(col([]float64{10}), 0, 1))
			return d
		}(), false},
		{"windows on boxed rows", FromRows("b", []Row{0.0, 1.0, 2.0}, 2, 8), false},
	}
	for _, tc := range cases {
		got, want := Flatten[float64](tc.d), flattenOld[float64](tc.d)
		if len(got) != tc.d.NumRows() || len(got) != len(want) {
			t.Errorf("%s: Flatten has %d rows, the dataset %d", tc.name, len(got), tc.d.NumRows())
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: Flatten = %v, want %v", tc.name, got, want)
				break
			}
		}
		if v := isView(got, vals); v != tc.view {
			t.Errorf("%s: Flatten returned a view = %v, want %v", tc.name, v, tc.view)
		}
		if tc.view {
			if allocs := testing.AllocsPerRun(10, func() { Flatten[float64](tc.d) }); allocs != 0 {
				t.Errorf("%s: a view cost %.0f allocations", tc.name, allocs)
			}
		}
	}

	// A column of another type is read through Values, row by row.
	if got := Flatten[Row](fresh(3)); len(got) != len(vals) || got[9].(float64) != 9 {
		t.Errorf("Flatten[Row] of a float64 column = %v", got)
	}
	ints := FromSlice("i", []int{1, 2, 3}, 2, 8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Flatten[float64] of an int column did not panic as Values does")
			}
		}()
		Flatten[float64](ints)
	}()

	// A view of a column with spare capacity is clipped: appending to it
	// must not write into the column's backing array.
	backing := make([]float64, 4, 8)
	view := Flatten[float64](FromSlice("spare", backing, 2, 8))
	if !isView(view, backing) || cap(view) != len(view) {
		t.Fatalf("view of a column with spare capacity: len %d cap %d", len(view), cap(view))
	}
	_ = append(view, 42)
	if backing[:5][4] == 42 {
		t.Error("append to a view wrote into its column")
	}

	// No rows: nothing to view, nothing to copy.
	for _, d := range []*Dataset{FromSlice("none", []float64(nil), 4, 8), New("empty"), cut[float64]("nocut", nil)} {
		if got := Flatten[float64](d); len(got) != 0 {
			t.Errorf("%s: Flatten of no rows = %v", d.Name, got)
		}
	}
}

// A random walk of the operations that keep or break the cut: the result
// always reads as the copying Flatten did.
func TestFlattenMatchesCopyOnRandomDatasets(t *testing.T) {
	f := func(lens []uint8, parts uint8, mutate uint8) bool {
		vals := make([]float64, 0, 64)
		for i, l := range lens {
			for j := 0; j < int(l%7); j++ {
				vals = append(vals, float64(i*10+j))
			}
		}
		d := FromSlice("r", vals, int(parts%9)+1, 8)
		switch mutate % 5 {
		case 1:
			d = d.Alias("a")
		case 2:
			d = Concat("c", d, d.Alias("twice"))
		case 3:
			d.Parts[0] = Partition{Col: col([]float64{-1}), Hi: 1, VirtualBytes: 8}
		case 4:
			d.Parts = d.Parts[1:]
		}
		got, want := Flatten[float64](d), flattenOld[float64](d)
		if len(got) != d.NumRows() || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkDataset is the dataset layer's costs over a 64 Ki-row column in
// 8 partitions: building a dataset over it (fromslice), a copy of one
// dataset's partitions (alias) and of two (concat), and reading it whole
// (flatten): as the column it was cut from (view) and, as a Concat of its
// two halves, row by row (copy).
func BenchmarkDataset(b *testing.B) {
	const n = 1 << 16
	vals := make([]float64, n)
	d := FromSlice("in", vals, 8, 8)
	halves := Concat("c", FromSlice("lo", vals[:n/2], 4, 8), FromSlice("hi", vals[n/2:], 4, 8))
	for _, bc := range []struct {
		name string
		f    func() *Dataset
	}{
		{"fromslice", func() *Dataset { return FromSlice("in", vals, 8, 8) }},
		{"alias", func() *Dataset { return d.Alias("a") }},
		{"concat", func() *Dataset { return Concat("c", d, d) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := bc.f(); got.NumPartitions() == 0 {
					b.Fatal(got)
				}
			}
		})
	}
	for _, bc := range []struct {
		name string
		d    *Dataset
	}{{"view", d}, {"copy", halves}} {
		b.Run("flatten/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				if got := Flatten[float64](bc.d); len(got) != n {
					b.Fatal(len(got))
				}
			}
		})
	}
}

// partState is what the holder of a dataset can change of one partition.
type partState struct {
	lo, hi int
	vb     int64
	boxed  bool
}

func partStates(d *Dataset) []partState {
	out := make([]partState, len(d.Parts))
	for i := range d.Parts {
		p := &d.Parts[i]
		out[i] = partState{lo: p.Lo, hi: p.Hi, vb: p.VirtualBytes, boxed: p.Rows != nil}
	}
	return out
}

// Every dataset owns its partitions: what its holder does to them — sizing
// them, boxing them — reaches no other dataset, though the datasets share
// their payload.
func TestPartitionsAreOwned(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	fresh := func() *Dataset { return FromSlice("d", vals, 3, 8) }
	cases := []struct {
		name string
		pair func() (mine, other *Dataset)
	}{
		{"Alias", func() (*Dataset, *Dataset) { d := fresh(); return d.Alias("a"), d }},
		{"the origin of an Alias", func() (*Dataset, *Dataset) { d := fresh(); return d, d.Alias("a") }},
		{"a sibling Alias", func() (*Dataset, *Dataset) { d := fresh(); return d.Alias("a"), d.Alias("b") }},
		{"FromSlice over the slice of another", func() (*Dataset, *Dataset) { return fresh(), fresh() }},
		{"Concat", func() (*Dataset, *Dataset) { d := fresh(); return Concat("c", d, fresh()), d }},
		{"an input of a Concat", func() (*Dataset, *Dataset) { d := fresh(); return d, Concat("c", d) }},
		// The engine's choose concatenation: the selected branches'
		// outputs, one of them an Alias of another, into one dataset.
		{"the choose concatenation", func() (*Dataset, *Dataset) {
			d := fresh()
			return Concat("out", d, nil, d.Alias("fwd")), d
		}},
	}
	for _, tc := range cases {
		mine, other := tc.pair()
		before := partStates(other)
		flat := append([]float64(nil), Flatten[float64](other)...)
		wasView := isView(Flatten[float64](other), vals)
		mine.SetVirtualBytes(12345)
		mine.Box()
		if mine.VirtualBytes() != 12345 {
			t.Fatalf("%s: SetVirtualBytes did not size the dataset it was called on", tc.name)
		}
		after := partStates(other)
		for i := range before {
			if after[i] != before[i] {
				t.Errorf("%s: partition %d of the other dataset went from %+v to %+v", tc.name, i, before[i], after[i])
			}
		}
		got := Flatten[float64](other)
		if len(got) != len(flat) || isView(got, vals) != wasView {
			t.Errorf("%s: the other dataset's Flatten changed shape", tc.name)
			continue
		}
		for i := range flat {
			if got[i] != flat[i] {
				t.Errorf("%s: the other dataset's Flatten = %v, want %v", tc.name, got, flat)
				break
			}
		}
	}
}
