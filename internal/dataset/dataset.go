// Package dataset implements the data model of the meta-dataflow paper
// (App. A): finite datasets of an opaque domain that can be partitioned
// across cluster nodes and concatenated with ⊕.
//
// A dataset carries two notions of size. The in-process payload is real data
// that operator functions transform, so that downstream decisions such as
// choose scores are computed from genuine results. The virtual size
// (VirtualBytes) is the number of bytes the simulated cluster accounts for
// when charging I/O time and memory occupancy; it lets benchmarks process
// "gigabytes" per worker without holding gigabytes in RAM.
//
// The payload of a partition is a window [Lo, Hi) on a typed Column (a
// *Col[T], or a workload's own struct-of-arrays type) that all partitions of
// its dataset share, so operators read and write it without an interface
// value per row. Boxed rows are one more column type, Col[Row]. A dataset
// owns its partitions, values in one block; over one column it costs two
// allocations besides its payload (Over). A deferred column (Defer) holds a
// row count and computes its values the first time a reader needs them, so a
// dataset that is only counted, sized or discarded never pays for them. A
// partition's Rows stay nil until (*Dataset).Box fills them, at a job's
// output and only when its caller asks for the result, for consumers that
// know nothing of the column types.
package dataset

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Row is a single data item. The model imposes no structure on rows
// (§2.1 "without imposing assumptions on the structure of data");
// workloads define concrete row types.
type Row any

// ID uniquely identifies a dataset within an engine run.
type ID int64

var nextID atomic.Int64

// NewID returns a fresh process-unique dataset ID.
func NewID() ID { return ID(nextID.Add(1)) }

// Column is the typed payload of a dataset: one per dataset, of which each
// partition is a window. Columns are immutable once a partition
// holds them: datasets derived from one another (Alias, Concat) share them,
// and Values and Flatten hand them out. A deferred column's values are fixed
// by its one fill.
type Column interface {
	// Len returns the number of rows.
	Len() int
	// AppendRows appends rows [lo, hi) of the column to dst, one boxed Row
	// each.
	AppendRows(dst []Row, lo, hi int) []Row
}

// Col is a plain slice of T; *Col[T] is its Column, which Over points at
// the header it allocates with the dataset.
type Col[T any] []T

// Len implements Column.
func (c *Col[T]) Len() int { return len(*c) }

// AppendRows implements Column.
func (c *Col[T]) AppendRows(dst []Row, lo, hi int) []Row {
	for _, v := range (*c)[lo:hi] {
		dst = append(dst, v)
	}
	return dst
}

// deferred is a Column of n values of T that fill computes from arg the
// first time a reader needs them: Values, Flatten, AppendRows and what calls
// it (BoxedRows, Rows, Box). Len does not fill, and neither do NumRows,
// VirtualBytes and SetVirtualBytes, which read the partitions alone. Readers
// on several goroutines fill it once; after the fill the column drops arg,
// and with it what the values were computed from.
type deferred[T, A any] struct {
	once sync.Once
	n    int
	fill func(arg A, dst []T) []T
	arg  A
	vals Col[T]
}

// Len implements Column.
func (c *deferred[T, A]) Len() int { return c.n }

// AppendRows implements Column.
func (c *deferred[T, A]) AppendRows(dst []Row, lo, hi int) []Row {
	return c.col().AppendRows(dst, lo, hi)
}

// col returns the column's values, filling them on the first call.
func (c *deferred[T, A]) col() *Col[T] {
	c.once.Do(func() {
		c.vals = c.fill(c.arg, make([]T, 0, c.n))
		if len(c.vals) != c.n {
			panic(fmt.Sprintf("dataset: a deferred column of %d rows filled %d", c.n, len(c.vals)))
		}
		var none A
		c.arg = none
	})
	return &c.vals
}

// Defer returns a dataset of n rows in parts windows, each accounting
// bytesPerRow per row (Windows), over a deferred column: the first reader
// that needs its values gets them from fill(arg, dst), which must append
// exactly n values to dst. The column's header holds fill and arg, so with
// fill a plain function rather than a closure, and arg a small struct of
// what the values are computed from, Defer costs the two allocations
// FromSlice does, and the values one more when they are filled.
func Defer[T, A any](name string, n int, fill func(arg A, dst []T) []T, arg A, parts int, bytesPerRow int64) *Dataset {
	return Over(name, deferred[T, A]{n: n, fill: fill, arg: arg}, Windows(n, parts, bytesPerRow))
}

// colOf returns the Col[T] c is, or fills to, and whether there is one.
func colOf[T any](c Column) (*Col[T], bool) {
	switch c := c.(type) {
	case *Col[T]:
		return c, true
	case interface{ col() *Col[T] }:
		return c.col(), true
	}
	return nil, false
}

// Partition is a horizontal fragment of a dataset, resident on one node.
type Partition struct {
	// Col is the whole column of the dataset, of which the partition holds
	// rows [Lo, Hi); nil only in a partition without rows.
	Col    Column
	Lo, Hi int
	// Rows is the boxed view of the window, nil until (*Dataset).Box fills
	// it; nothing else may write it.
	Rows []Row
	// VirtualBytes is the size the cluster simulator accounts for.
	VirtualBytes int64
}

// NumRows returns the number of rows in the partition.
func (p *Partition) NumRows() int { return p.Hi - p.Lo }

// BoxedRows returns the partition's rows boxed, for consumers to which rows
// are opaque (checkpoint encoding, checksums). The caller must not modify
// the result: it is the window itself on a Col[Row], Rows where Box filled
// them, and otherwise a fresh slice, stored nowhere.
func (p *Partition) BoxedRows() []Row {
	if rows, ok := colOf[Row](p.Col); ok {
		return (*rows)[p.Lo:p.Hi:p.Hi]
	}
	if p.Rows != nil || p.Col == nil {
		return p.Rows
	}
	return p.Col.AppendRows(make([]Row, 0, p.NumRows()), p.Lo, p.Hi)
}

// Values returns the partition's rows as a []T the caller must not modify:
// the window of the column, its capacity clipped, for a partition of a
// Col[T] or of a deferred column of T, otherwise the boxed rows asserted to
// T one by one (BoxedRows itself when T is Row). It panics, as a failed type
// assertion on a Row does, when the rows are not of type T.
func Values[T any](p *Partition) []T {
	if c, ok := colOf[T](p.Col); ok {
		return (*c)[p.Lo:p.Hi:p.Hi]
	}
	rows := p.BoxedRows()
	if vals, ok := any(rows).([]T); ok {
		return vals
	}
	vals := make([]T, len(rows))
	for i, r := range rows {
		vals[i] = r.(T)
	}
	return vals
}

// Dataset is a named, partitioned collection of rows. Its partitions are
// its own: range over them by index (p := &d.Parts[i]) to write one.
type Dataset struct {
	ID    ID
	Name  string
	Parts []Partition
}

// New creates an empty dataset with a fresh ID.
func New(name string) *Dataset {
	return &Dataset{ID: NewID(), Name: name}
}

// FromPartitions creates a dataset with a fresh ID over the partitions the
// caller made, in order. The dataset takes the slice over as its one block
// of partitions, which allocates nothing but the dataset.
func FromPartitions(name string, parts []Partition) *Dataset {
	return &Dataset{ID: NewID(), Name: name, Parts: parts}
}

// Over is FromPartitions for windows on one column: it allocates col with the
// dataset and points every partition's Col at it, so the column's header
// costs no allocation or interface box of its own; *C is the Column. The
// header keeps the dataset and its block reachable while any window on it is.
func Over[C any, P interface {
	*C
	Column
}](name string, col C, parts []Partition) *Dataset {
	h := &struct {
		Dataset
		col C
	}{Dataset{ID: NewID(), Name: name, Parts: parts}, col}
	for i := range parts {
		parts[i].Col = P(&h.col)
	}
	return &h.Dataset
}

// Windows returns n rows in parts windows of near-equal length, for Over,
// each accounting bytesPerRow per row. parts must be >= 1.
func Windows(n, parts int, bytesPerRow int64) []Partition {
	if parts < 1 {
		panic("dataset: parts must be >= 1")
	}
	block := make([]Partition, parts)
	for i := range block {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		block[i] = Partition{Lo: lo, Hi: hi, VirtualBytes: int64(hi-lo) * bytesPerRow}
	}
	return block
}

// FromSlice is Over the slice, without copying it, in Windows.
func FromSlice[T any](name string, vals []T, parts int, bytesPerRow int64) *Dataset {
	return Over(name, Col[T](vals), Windows(len(vals), parts, bytesPerRow))
}

// FromRows is FromSlice at T = Row.
func FromRows(name string, rows []Row, parts int, bytesPerRow int64) *Dataset {
	return FromSlice(name, rows, parts, bytesPerRow)
}

// NumPartitions returns the number of partitions.
func (d *Dataset) NumPartitions() int { return len(d.Parts) }

// NumRows returns the total number of rows across partitions.
func (d *Dataset) NumRows() int {
	n := 0
	for i := range d.Parts {
		n += d.Parts[i].NumRows()
	}
	return n
}

// VirtualBytes returns the total accounted size of the dataset.
func (d *Dataset) VirtualBytes() int64 {
	var b int64
	for i := range d.Parts {
		b += d.Parts[i].VirtualBytes
	}
	return b
}

// Rows returns all rows of the dataset, boxed, in partition order. The
// returned slice is freshly allocated.
func (d *Dataset) Rows() []Row {
	out := make([]Row, 0, d.NumRows())
	for i := range d.Parts {
		if p := &d.Parts[i]; p.Col != nil {
			out = p.Col.AppendRows(out, p.Lo, p.Hi)
		}
	}
	return out
}

// Flatten returns the rows of all partitions in order as a []T the caller
// must not modify; see Values for the row types it accepts. The result is a
// view, with its capacity clipped, of the partitions' column when that is a
// Col[T] or a deferred column of T and the partitions are its consecutive
// windows from its first row to its last: what FromSlice, Over with
// consecutive windows, Alias, Defer and the mdf Map and Filter make.
// Otherwise — a Concat of several datasets, a replaced partition, a column
// of another type — it is a fresh slice.
func Flatten[T any](d *Dataset) []T {
	if c, ok := cutFrom[T](d.Parts); ok {
		return c[:len(c):len(c)]
	}
	out := make([]T, 0, d.NumRows())
	for i := range d.Parts {
		out = append(out, Values[T](&d.Parts[i])...)
	}
	return out
}

// cutFrom returns the Col[T] the partitions are, in order, consecutive
// windows of that cover it, and whether there is one: every partition must
// hold the first one's column, which its length and the address of its
// first value tell, and start where the previous one ended.
func cutFrom[T any](parts []Partition) (Col[T], bool) {
	if len(parts) == 0 {
		return nil, false
	}
	first, ok := colOf[T](parts[0].Col)
	if !ok {
		return nil, false
	}
	c := *first
	off := 0
	for i := range parts {
		p := &parts[i]
		pc, ok := colOf[T](p.Col)
		if !ok || len(*pc) != len(c) || (len(c) > 0 && &(*pc)[0] != &c[0]) || p.Lo != off || p.Hi < off {
			return nil, false
		}
		off = p.Hi
	}
	return c, off == len(c)
}

// Box fills the boxed view (Rows) of every partition, so that a consumer
// that knows nothing of the column types can read the result; a window on a
// Col[Row] is its own view. It is idempotent. Box writes the dataset's own
// partitions, which no other dataset reaches, so only the dataset's holder
// may call it: the engine's Run.Result does, on the output of a finished
// job, which no goroutine of the run still computes.
func (d *Dataset) Box() {
	for i := range d.Parts {
		d.BoxPart(i)
	}
}

// BoxPart is Box of partition i alone. It writes that partition and nothing
// else, so the dataset's holder may box distinct partitions on several
// goroutines at once.
func (d *Dataset) BoxPart(i int) {
	p := &d.Parts[i]
	p.Rows = p.BoxedRows()
}

// Alias returns a dataset with a fresh ID and a copy of d's partitions,
// which share d's payload: two allocations. What the holder of one does to
// its partitions (accounted sizes, Box) does not reach the other.
func (d *Dataset) Alias(name string) *Dataset {
	return FromPartitions(name, slices.Clone(d.Parts))
}

// SetVirtualBytes overrides the accounted size of the dataset, spreading
// total evenly over partitions. Used by synthetic workloads that decouple
// accounted size from payload size.
func (d *Dataset) SetVirtualBytes(total int64) {
	if len(d.Parts) == 0 {
		return
	}
	per := total / int64(len(d.Parts))
	rem := total - per*int64(len(d.Parts))
	for i := range d.Parts {
		p := &d.Parts[i]
		p.VirtualBytes = per
		if int64(i) < rem {
			p.VirtualBytes++
		}
	}
}

// Concat implements ⊕: it concatenates the datasets into a new dataset,
// preserving partitioning. Nil inputs are skipped. The result has a fresh ID
// and a copy of its inputs' partitions, which share their payload: two
// allocations, and what the holder of the result does to its partitions
// reaches no input.
func Concat(name string, ds ...*Dataset) *Dataset {
	n := 0
	for _, d := range ds {
		if d != nil {
			n += len(d.Parts)
		}
	}
	parts := make([]Partition, 0, n)
	for _, d := range ds {
		if d != nil {
			parts = append(parts, d.Parts...)
		}
	}
	return FromPartitions(name, parts)
}

// String implements fmt.Stringer.
func (d *Dataset) String() string {
	return fmt.Sprintf("dataset(%d %q parts=%d rows=%d vbytes=%d)",
		d.ID, d.Name, d.NumPartitions(), d.NumRows(), d.VirtualBytes())
}

// PartKey identifies one partition of one dataset; the cluster simulator and
// memory manager key residency information by PartKey.
type PartKey struct {
	Dataset ID
	Index   int
}

// Key returns the PartKey for partition i of the dataset.
func (d *Dataset) Key(i int) PartKey { return PartKey{Dataset: d.ID, Index: i} }

// String implements fmt.Stringer.
func (k PartKey) String() string { return fmt.Sprintf("d%d/p%d", k.Dataset, k.Index) }
