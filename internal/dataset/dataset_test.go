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

func TestScaleVirtualBytes(t *testing.T) {
	d := FromRows("t", intRows(8), 2, 100)
	d.ScaleVirtualBytes(0.5)
	if got := d.VirtualBytes(); got != 400 {
		t.Fatalf("scaled total = %d, want 400", got)
	}
}

func TestRepartitionPreservesRowsAndBytes(t *testing.T) {
	d := FromRows("t", intRows(10), 2, 7)
	r := d.Repartition(5)
	if r.NumPartitions() != 5 {
		t.Fatalf("partitions = %d, want 5", r.NumPartitions())
	}
	if r.NumRows() != 10 || r.VirtualBytes() != d.VirtualBytes() {
		t.Fatal("repartition must preserve rows and bytes")
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

// Neighbouring partitions share one backing array; their capacity is clipped
// so that growing one cannot overwrite the first row of the next.
func TestAppendToPartitionLeavesNeighbourIntact(t *testing.T) {
	boxed := FromRows("t", intRows(10), 2, 1)
	_ = append(boxed.Parts[0].Rows, Row(-1))
	if got := boxed.Parts[1].Rows[0].(int); got != 5 {
		t.Errorf("FromRows: append to partition 0 overwrote partition 1's first row with %d", got)
	}

	re := boxed.Repartition(5)
	_ = append(re.Parts[0].Rows, Row(-1))
	if got := re.Parts[1].Rows[0].(int); got != 2 {
		t.Errorf("Repartition: append to partition 0 overwrote partition 1's first row with %d", got)
	}

	typed := FromSlice("t", []float64{0, 1, 2, 3}, 2, 8)
	_ = append(Values[float64](typed.Parts[0]), -1)
	if got := Values[float64](typed.Parts[1])[0]; got != 2 {
		t.Errorf("FromSlice: append to partition 0 overwrote partition 1's first row with %g", got)
	}
}

func TestColumnarPartitionsStayUnboxedUntilBox(t *testing.T) {
	d := FromSlice("t", []float64{0.5, 1.5, 2.5, 3.5, 4.5}, 3, 8)
	if d.NumRows() != 5 || d.VirtualBytes() != 40 {
		t.Fatalf("rows = %d, bytes = %d, want 5 and 40", d.NumRows(), d.VirtualBytes())
	}
	for i, p := range d.Parts {
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
	a := d.Alias("a")
	a.Box()
	first := a.Parts[0].Rows
	if len(first) != 1 || first[0].(float64) != 0.5 {
		t.Fatalf("boxed view of partition 0 = %v", first)
	}
	a.Box()
	if &a.Parts[0].Rows[0] != &first[0] {
		t.Error("a second Box re-boxed the partition")
	}
	for i, p := range d.Parts {
		if p.Rows != nil {
			t.Errorf("boxing an alias wrote partition %d of its origin", i)
		}
	}
	if a.ID == d.ID || a.VirtualBytes() != d.VirtualBytes() {
		t.Error("an alias has a fresh ID and its origin's accounted size")
	}
	a.ScaleVirtualBytes(0.5)
	if d.VirtualBytes() != 40 {
		t.Error("resizing an alias resized its origin")
	}
}

// Values and Flatten read boxed and columnar partitions alike.
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
	if vals := Values[float64](typed.Parts[1]); &vals[0] != &typed.Parts[1].Col.(Col[float64])[0] {
		t.Error("Values of a Col[T] partition must be the column, not a copy")
	}
	if rows := Values[Row](boxed.Parts[1]); &rows[0] != &boxed.Parts[1].Rows[0] {
		t.Error("Values[Row] of a boxed partition must be Rows, not a copy")
	}
	if got := Flatten[float64](New("empty")); len(got) != 0 {
		t.Errorf("Flatten of an empty dataset = %v", got)
	}
}

// flattenOld is Flatten as it was before it returned views: always a copy.
// It is what a view must read as.
func flattenOld[T any](d *Dataset) []T {
	out := make([]T, 0, d.NumRows())
	for _, p := range d.Parts {
		out = append(out, Values[T](p)...)
	}
	return out
}

// isView reports whether got is vals itself rather than a copy of it.
func isView(got, vals []float64) bool {
	return len(got) > 0 && len(got) == len(vals) && &got[0] == &vals[0]
}

// Flatten returns the column a dataset was cut from while its partitions
// still are that column's consecutive slices, and a copy in every other
// case; either way it reads as the copy did, never longer or shorter than
// NumRows, and a view cannot be appended into its column's spare capacity.
func TestFlattenViewsAndCopies(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	fresh := func(parts int) *Dataset { return FromSlice("t", vals, parts, 8) }
	replaced := func(c Column) *Dataset {
		d := fresh(3)
		d.Parts[1] = NewPartition(c, 24)
		return d
	}
	other := []float64{3, 4, 5}
	cut := Cut("cut", Col[float64](vals), []int{0, 4, 4, 10})
	short := Cut("short", Col[float64](vals), []int{2, 5}) // ends before the column does
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
		{"Cut with empty partitions", cut, true},
		{"a partition replaced by the same slice of the column", replaced(Col[float64](vals[3:6])), true},
		{"Cut that stops short of the column", short, false},
		{"Concat", Concat("c", fresh(2), fresh(2)), false},
		{"Concat of one dataset", Concat("c", fresh(3)), false},
		{"the choose concatenation (Concat then Alias)", Concat("c", fresh(2), fresh(3)).Alias("out"), false},
		{"a replaced partition", replaced(Col[float64](other)), false},
		{"a partition replaced by a boxed one", replaced(Col[Row]{3.0, 4.0, 5.0}), false},
		{"a dropped partition", func() *Dataset { d := fresh(3); d.Parts = d.Parts[:2]; return d }(), false},
		{"swapped partitions", func() *Dataset { d := fresh(2); d.Parts[0], d.Parts[1] = d.Parts[1], d.Parts[0]; return d }(), false},
		{"an added partition", func() *Dataset {
			d := fresh(2)
			d.Parts = append(d.Parts, NewPartition(Col[float64]{10}, 8))
			return d
		}(), false},
		{"boxed partitions", FromRows("b", []Row{0.0, 1.0, 2.0}, 2, 8), false},
		{"Repartition", fresh(3).Repartition(2), false},
		{"hand-assembled partitions", &Dataset{Parts: []*Partition{NewPartition(Col[float64](vals), 80)}}, false},
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
	for _, d := range []*Dataset{FromSlice("none", []float64(nil), 4, 8), New("empty"), Cut("nocut", Col[float64](nil), nil)} {
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
			d.Parts[0] = NewPartition(Col[float64]{-1}, 8)
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

// BenchmarkFlatten reads a 64 Ki-row dataset whole: as the column it was cut
// from (view) and, after a Concat has broken the cut, row by row (copy).
func BenchmarkFlatten(b *testing.B) {
	d := FromSlice("in", make([]float64, 1<<16), 8, 8)
	for _, bc := range []struct {
		name string
		d    *Dataset
	}{{"view", d}, {"copy", Concat("c", d)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(8 << 16)
			for i := 0; i < b.N; i++ {
				if got := Flatten[float64](bc.d); len(got) != 1<<16 {
					b.Fatal(len(got))
				}
			}
		})
	}
}
