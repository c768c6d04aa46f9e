package mdf

import (
	"fmt"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
)

// This file provides common operator-function constructors. Transform
// functions receive the predecessor outputs in edge order and must produce a
// dataset with accounted partition sizes; the helpers here preserve or scale
// the input's virtual sizes so the cluster simulator charges realistic I/O.

// SourceFromDataset returns a source function that emits a fixed dataset.
// Each invocation re-emits the same payload under a fresh dataset identity
// and in fresh partitions, so that independent jobs account their inputs
// separately and none can resize or box another's.
func SourceFromDataset(d *dataset.Dataset) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		if len(ins) != 0 {
			return nil, fmt.Errorf("mdf: source received %d inputs", len(ins))
		}
		return d.Alias(d.Name), nil
	}
}

// SourceFunc returns a source function that calls gen on every invocation.
func SourceFunc(gen func() *dataset.Dataset) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		if len(ins) != 0 {
			return nil, fmt.Errorf("mdf: source received %d inputs", len(ins))
		}
		return gen(), nil
	}
}

// PerPartition returns a transform that builds its output partition by
// partition: f receives an input partition, which it must not modify, and
// returns the payload and the accounted size of the output partition at the
// same index.
func PerPartition(name string, f func(p *dataset.Partition) (dataset.Column, int64)) graph.TransformFunc {
	return WholeDataset(name, func(in *dataset.Dataset) (*dataset.Dataset, error) {
		parts := make([]dataset.Partition, len(in.Parts))
		for i, p := range in.Parts {
			parts[i] = dataset.MakePartition(f(p))
		}
		return dataset.FromPartitions(name, parts), nil
	})
}

// Map returns a transform applying f to every row, preserving partitioning
// and scaling each partition's accounted size by sizeScale (1.0 keeps the
// input size). The input rows must be of type T (dataset.Values); the output
// is columnar unless U is dataset.Row. The output partitions are cut from
// one column, so a whole-dataset consumer reads it without copying
// (dataset.Flatten).
func Map[T, U any](name string, sizeScale float64, f func(T) U) graph.TransformFunc {
	return WholeDataset(name, func(in *dataset.Dataset) (*dataset.Dataset, error) {
		mapped := make(dataset.Col[U], in.NumRows())
		ends := make([]int, len(in.Parts))
		n := 0
		for i, p := range in.Parts {
			vals := dataset.Values[T](p)
			dst := mapped[n : n+len(vals)]
			for j, v := range vals {
				dst[j] = f(v)
			}
			n += len(vals)
			ends[i] = n
		}
		out := dataset.Cut(name, mapped, ends)
		for i, p := range in.Parts {
			out.Parts[i].VirtualBytes = int64(float64(p.VirtualBytes) * sizeScale)
		}
		return out, nil
	})
}

// Filter returns a transform keeping the rows for which pred holds, scaling
// each partition's accounted size by the fraction of rows kept. Row types
// are as for Map, and so is the single output column.
func Filter[T any](name string, pred func(T) bool) graph.TransformFunc {
	return WholeDataset(name, func(in *dataset.Dataset) (*dataset.Dataset, error) {
		kept := make(dataset.Col[T], 0, in.NumRows())
		ends := make([]int, len(in.Parts))
		for i, p := range in.Parts {
			for _, v := range dataset.Values[T](p) {
				if pred(v) {
					kept = append(kept, v)
				}
			}
			ends[i] = len(kept)
		}
		out := dataset.Cut(name, kept, ends)
		lo := 0
		for i, p := range in.Parts {
			if n := p.NumRows(); n > 0 {
				out.Parts[i].VirtualBytes = int64(float64(p.VirtualBytes) * float64(ends[i]-lo) / float64(n))
			}
			lo = ends[i]
		}
		return out, nil
	})
}

// MapRows is Map over boxed rows.
func MapRows(name string, sizeScale float64, f func(dataset.Row) dataset.Row) graph.TransformFunc {
	return Map(name, sizeScale, f)
}

// FilterRows is Filter over boxed rows.
func FilterRows(name string, pred func(dataset.Row) bool) graph.TransformFunc {
	return Filter(name, pred)
}

// WholeDataset returns a transform applying f to the single input dataset
// as a whole (for aggregations and model training).
func WholeDataset(name string, f func(in *dataset.Dataset) (*dataset.Dataset, error)) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		if len(ins) != 1 {
			return nil, fmt.Errorf("mdf: %s expects one input, got %d", name, len(ins))
		}
		return f(ins[0])
	}
}

// Identity returns a transform forwarding its input's payload, uncopied,
// under a new dataset identity.
func Identity(name string) graph.TransformFunc {
	return WholeDataset(name, func(in *dataset.Dataset) (*dataset.Dataset, error) {
		return in.Alias(name), nil
	})
}
