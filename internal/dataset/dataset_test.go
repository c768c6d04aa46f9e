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
