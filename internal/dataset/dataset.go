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
// The payload of a partition is either columnar or boxed. A columnar
// partition holds a typed Column (Col[T], or a workload's own
// struct-of-arrays type) and operators read and write it without an
// interface value per row; its Rows stay nil until (*Dataset).Box fills them
// once, at the job output. A boxed partition has no Column and Rows is its
// payload: the form FromRows and the mdf *Rows operators produce, and the
// one a job's result is read in.
package dataset

import (
	"fmt"
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

// Column is the typed payload of a columnar partition. Columns are
// immutable once a partition holds them: datasets derived from one another
// (Alias, a choose concatenation) share them, and Flatten hands them out.
type Column interface {
	// Len returns the number of rows.
	Len() int
	// AppendRows appends the column's values to dst, one boxed Row each.
	AppendRows(dst []Row) []Row
	// Slice returns rows [lo, hi) as a column sharing the storage, with its
	// capacity clipped: an append to one partition's values must not write
	// into the next partition's.
	Slice(lo, hi int) Column
}

// Col is the Column of a plain slice of T.
type Col[T any] []T

// Len implements Column.
func (c Col[T]) Len() int { return len(c) }

// AppendRows implements Column.
func (c Col[T]) AppendRows(dst []Row) []Row {
	for _, v := range c {
		dst = append(dst, v)
	}
	return dst
}

// Slice implements Column.
func (c Col[T]) Slice(lo, hi int) Column { return c[lo:hi:hi] }

// Partition is a horizontal fragment of a dataset, resident on one node.
type Partition struct {
	// Col is the typed payload of a columnar partition, nil in a boxed one.
	Col Column
	// Rows is the payload of a boxed partition. In a columnar partition it
	// is the boxed view of Col, nil until (*Dataset).Box fills it; nothing
	// else may write it.
	Rows []Row
	// VirtualBytes is the size the cluster simulator accounts for.
	VirtualBytes int64
}

// MakePartition wraps a column as a partition accounted at virtualBytes: boxed
// when the column is a Col[Row], columnar otherwise.
func MakePartition(c Column, virtualBytes int64) Partition {
	if rows, ok := c.(Col[Row]); ok {
		return Partition{Rows: rows, VirtualBytes: virtualBytes}
	}
	return Partition{Col: c, VirtualBytes: virtualBytes}
}

// NewPartition is MakePartition for a partition allocated on its own.
func NewPartition(c Column, virtualBytes int64) *Partition {
	p := MakePartition(c, virtualBytes)
	return &p
}

// NumRows returns the number of rows in the partition.
func (p *Partition) NumRows() int {
	if p.Col != nil {
		return p.Col.Len()
	}
	return len(p.Rows)
}

// BoxedRows returns the partition's rows boxed, for consumers to which rows
// are opaque (checkpoint encoding, checksums). The caller must not modify
// the result: it is Rows itself where that is filled, and a fresh slice,
// stored nowhere, for a columnar partition that is not.
func (p *Partition) BoxedRows() []Row {
	if p.unboxed() {
		return p.Col.AppendRows(make([]Row, 0, p.Col.Len()))
	}
	return p.Rows
}

// unboxed reports whether the partition is columnar with its boxed view
// still to be filled.
func (p *Partition) unboxed() bool { return p.Col != nil && p.Rows == nil }

// Values returns the partition's rows as a []T the caller must not modify:
// the column itself for a Col[T] partition, otherwise the boxed rows
// asserted to T one by one (Rows itself when T is Row). It panics, as a
// failed type assertion on a Row does, when the rows are not of type T.
func Values[T any](p *Partition) []T {
	if c, ok := p.Col.(Col[T]); ok {
		return c
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

// Dataset is a named, partitioned collection of rows.
type Dataset struct {
	ID    ID
	Name  string
	Parts []*Partition
	// col is the column the partitions were cut from (FromColumn, Cut,
	// carried through Alias), nil for a dataset assembled any other way.
	// Parts is exported and may have changed since, so Flatten checks it
	// against col before returning col as a view.
	col Column
}

// New creates an empty dataset with a fresh ID.
func New(name string) *Dataset {
	return &Dataset{ID: NewID(), Name: name}
}

// FromPartitions creates a dataset with a fresh ID over the partitions the
// caller made, in order. The dataset takes the slice over: Parts points into
// it, one block for all the partitions of the dataset, which therefore stays
// reachable — the payloads of every partition with it — for as long as any
// one of them is.
func FromPartitions(name string, parts []Partition) *Dataset {
	d := New(name)
	d.Parts = make([]*Partition, len(parts))
	for i := range parts {
		d.Parts[i] = &parts[i]
	}
	return d
}

// FromColumn builds a dataset by splitting the column, without copying it,
// into parts partitions of near-equal length. The virtual size is
// bytesPerRow × row count, spread proportionally over the partitions. parts
// must be >= 1.
func FromColumn(name string, c Column, parts int, bytesPerRow int64) *Dataset {
	if parts < 1 {
		panic("dataset: parts must be >= 1")
	}
	block := make([]Partition, parts)
	n := c.Len()
	for i := range block {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		block[i] = MakePartition(c.Slice(lo, hi), int64(hi-lo)*bytesPerRow)
	}
	d := FromPartitions(name, block)
	d.col = c
	return d
}

// Cut builds a dataset by splitting the column, without copying it, at the
// given row offsets: partition i holds rows [ends[i-1], ends[i]), the first
// one starting at row 0 and the last one ending at the column's length. The
// partitions account zero bytes until the caller sizes them. It is
// FromColumn for an operator whose output partitioning follows its input's
// rather than an even split.
func Cut(name string, c Column, ends []int) *Dataset {
	block := make([]Partition, len(ends))
	lo := 0
	for i, hi := range ends {
		block[i] = MakePartition(c.Slice(lo, hi), 0)
		lo = hi
	}
	d := FromPartitions(name, block)
	d.col = c
	return d
}

// FromSlice is FromColumn over a plain slice.
func FromSlice[T any](name string, vals []T, parts int, bytesPerRow int64) *Dataset {
	return FromColumn(name, Col[T](vals), parts, bytesPerRow)
}

// FromRows is FromSlice over boxed rows.
func FromRows(name string, rows []Row, parts int, bytesPerRow int64) *Dataset {
	return FromSlice(name, rows, parts, bytesPerRow)
}

// NumPartitions returns the number of partitions.
func (d *Dataset) NumPartitions() int { return len(d.Parts) }

// NumRows returns the total number of rows across partitions.
func (d *Dataset) NumRows() int {
	n := 0
	for _, p := range d.Parts {
		n += p.NumRows()
	}
	return n
}

// VirtualBytes returns the total accounted size of the dataset.
func (d *Dataset) VirtualBytes() int64 {
	var b int64
	for _, p := range d.Parts {
		b += p.VirtualBytes
	}
	return b
}

// Rows returns all rows of the dataset, boxed, in partition order. The
// returned slice is freshly allocated.
func (d *Dataset) Rows() []Row {
	out := make([]Row, 0, d.NumRows())
	for _, p := range d.Parts {
		if p.unboxed() {
			out = p.Col.AppendRows(out)
		} else {
			out = append(out, p.Rows...)
		}
	}
	return out
}

// Flatten returns the rows of all partitions in order as a []T the caller
// must not modify; see Values for the row types it accepts. The result is a
// view, with its capacity clipped, of the column the dataset was cut from
// when that is a Col[T] and the partitions still are its consecutive slices:
// what FromColumn, FromSlice, Cut, Alias and the mdf Map and Filter make.
// Otherwise — boxed partitions, a Concat, a replaced partition, a column of
// another type — it is a fresh slice.
func Flatten[T any](d *Dataset) []T {
	if c, ok := d.col.(Col[T]); ok && cutFrom(d.Parts, c) {
		return c[:len(c):len(c)]
	}
	out := make([]T, 0, d.NumRows())
	for _, p := range d.Parts {
		out = append(out, Values[T](p)...)
	}
	return out
}

// cutFrom reports whether the partitions are, in order, consecutive slices
// of c that cover it: each must start at the element of c the previous one
// ended before, which the address of its first value tells.
func cutFrom[T any](parts []*Partition, c Col[T]) bool {
	off := 0
	for _, p := range parts {
		pc, ok := p.Col.(Col[T])
		if !ok || len(pc) > len(c)-off || (len(pc) > 0 && &pc[0] != &c[off]) {
			return false
		}
		off += len(pc)
	}
	return off == len(c)
}

// Box fills the boxed view (Rows) of every columnar partition, so that a
// consumer that knows nothing of the column types can read the result. It is
// idempotent. Box writes the partitions, so only their owner may call it:
// the engine does, once, on the output of a finished job, whose partitions
// no other job can reach (sources emit fresh partitions, see Alias).
func (d *Dataset) Box() {
	for _, p := range d.Parts {
		if p.unboxed() {
			p.Rows = p.BoxedRows()
		}
	}
}

// Alias returns a dataset with a fresh ID and fresh partitions that share
// d's payload. What the holder of one does to its partitions (accounted
// sizes, Box) does not reach the other.
func (d *Dataset) Alias(name string) *Dataset {
	block := make([]Partition, len(d.Parts))
	for i, p := range d.Parts {
		block[i] = *p
	}
	out := FromPartitions(name, block)
	out.col = d.col
	return out
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
	for i, p := range d.Parts {
		p.VirtualBytes = per
		if int64(i) < rem {
			p.VirtualBytes++
		}
	}
}

// ScaleVirtualBytes multiplies every partition's accounted size by f.
func (d *Dataset) ScaleVirtualBytes(f float64) {
	for _, p := range d.Parts {
		p.VirtualBytes = int64(float64(p.VirtualBytes) * f)
	}
}

// Concat implements ⊕: it concatenates the datasets into a new dataset,
// preserving partitioning. Nil inputs are skipped. The result has a fresh ID.
func Concat(name string, ds ...*Dataset) *Dataset {
	out := New(name)
	for _, d := range ds {
		if d == nil {
			continue
		}
		out.Parts = append(out.Parts, d.Parts...)
	}
	return out
}

// Repartition redistributes all rows, boxed, into parts near-equal
// partitions, preserving the total virtual size.
func (d *Dataset) Repartition(parts int) *Dataset {
	out := FromRows(d.Name, d.Rows(), parts, 0)
	out.SetVirtualBytes(d.VirtualBytes())
	return out
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
