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

// Map returns a transform applying f to every row, preserving partitioning
// and scaling each partition's accounted size by sizeScale (1.0 keeps the
// input size). The input rows must be of type T (dataset.Values). The output
// partitions are windows on one Col[U], so a whole-dataset consumer reads it
// without copying (dataset.Flatten).
func Map[T, U any](name string, sizeScale float64, f func(T) U) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := OneInput(name, ins)
		if err != nil {
			return nil, err
		}
		return MapDataset(name, in, sizeScale, f), nil
	}
}

// MapDataset is Map's kernel, for an operator that maps its input through a
// function it only knows once it has read the input: it returns the dataset
// Map(name, sizeScale, f) would return for in.
func MapDataset[T, U any](name string, in *dataset.Dataset, sizeScale float64, f func(T) U) *dataset.Dataset {
	mapped := make(dataset.Col[U], in.NumRows())
	parts := make([]dataset.Partition, len(in.Parts))
	n := 0
	for i := range in.Parts {
		p := &in.Parts[i]
		vals := dataset.Values[T](p)
		dst := mapped[n : n+len(vals)]
		for j, v := range vals {
			dst[j] = f(v)
		}
		parts[i] = dataset.Partition{Lo: n, Hi: n + len(vals), VirtualBytes: int64(float64(p.VirtualBytes) * sizeScale)}
		n += len(vals)
	}
	return dataset.Over(name, mapped, parts)
}

// Filter returns a transform keeping the rows for which pred holds, scaling
// each partition's accounted size by the fraction of rows kept. Row types
// are as for Map, and so is the single output column, which is allocated at
// the size of what it keeps: pred runs twice per row, once to count and once
// to copy, so it must be pure (as every operator function must be, since
// lineage re-derivation runs operators again).
func Filter[T any](name string, pred func(T) bool) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := OneInput(name, ins)
		if err != nil {
			return nil, err
		}
		n := 0
		for i := range in.Parts {
			for _, v := range dataset.Values[T](&in.Parts[i]) {
				if pred(v) {
					n++
				}
			}
		}
		kept := make(dataset.Col[T], 0, n)
		parts := make([]dataset.Partition, len(in.Parts))
		for i := range in.Parts {
			p := &in.Parts[i]
			lo := len(kept)
			for _, v := range dataset.Values[T](p) {
				if pred(v) {
					kept = append(kept, v)
				}
			}
			parts[i] = dataset.Partition{Lo: lo, Hi: len(kept)}
			if n := p.NumRows(); n > 0 {
				parts[i].VirtualBytes = int64(float64(p.VirtualBytes) * float64(len(kept)-lo) / float64(n))
			}
		}
		return dataset.Over(name, kept, parts), nil
	}
}

// MapRows is Map at T = U = dataset.Row.
func MapRows(name string, sizeScale float64, f func(dataset.Row) dataset.Row) graph.TransformFunc {
	return Map(name, sizeScale, f)
}

// FilterRows is Filter at T = dataset.Row.
func FilterRows(name string, pred func(dataset.Row) bool) graph.TransformFunc {
	return Filter(name, pred)
}

// WholeDataset returns a transform applying f to the single input dataset
// as a whole (for aggregations and model training). It costs two closures,
// its own and f: an operator built once per branch is one closure that calls
// OneInput itself, as Map, Filter and Identity are.
func WholeDataset(name string, f func(in *dataset.Dataset) (*dataset.Dataset, error)) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := OneInput(name, ins)
		if err != nil {
			return nil, err
		}
		return f(in)
	}
}

// OneInput returns the input of an operator that takes exactly one, or the
// error the operator called name fails with when given another number.
func OneInput(name string, ins []*dataset.Dataset) (*dataset.Dataset, error) {
	if len(ins) != 1 {
		return nil, fmt.Errorf("mdf: %s expects one input, got %d", name, len(ins))
	}
	return ins[0], nil
}

// Identity returns a transform forwarding its input's payload, uncopied,
// under a new dataset identity.
func Identity(name string) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := OneInput(name, ins)
		if err != nil {
			return nil, err
		}
		return in.Alias(name), nil
	}
}
