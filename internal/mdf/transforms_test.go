package mdf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metadataflow/internal/dataset"
)

// randomInputs builds the same random values twice, as windows on a
// Col[float64] and on a Col[dataset.Row] (boxed), over the same random
// partitioning (empty partitions included) with the same random accounted
// sizes.
func randomInputs(rng *rand.Rand) (typed, boxed *dataset.Dataset) {
	var typedParts, boxedParts []dataset.Partition
	for p := rng.Intn(5); p > 0; p-- {
		vals := make([]float64, rng.Intn(4)*rng.Intn(20))
		rows := make([]dataset.Row, len(vals))
		for i := range vals {
			vals[i] = rng.NormFloat64()
			rows[i] = vals[i]
		}
		vb := rng.Int63n(1 << 40)
		typedCol, boxedCol := dataset.Col[float64](vals), dataset.Col[dataset.Row](rows)
		typedParts = append(typedParts, dataset.Partition{Col: &typedCol, Hi: len(vals), VirtualBytes: vb})
		boxedParts = append(boxedParts, dataset.Partition{Col: &boxedCol, Hi: len(rows), VirtualBytes: vb})
	}
	return dataset.FromPartitions("typed", typedParts), dataset.FromPartitions("boxed", boxedParts)
}

// sameResult reports how the boxed view of got differs from want, partition
// by partition, row by row and in accounted size.
func sameResult(t *testing.T, op string, got, want *dataset.Dataset) {
	t.Helper()
	got.Box()
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("%s: %d partitions, want %d", op, len(got.Parts), len(want.Parts))
	}
	for i := range want.Parts {
		g, w := &got.Parts[i], &want.Parts[i]
		if g.VirtualBytes != w.VirtualBytes {
			t.Fatalf("%s: partition %d accounts %d bytes, want %d", op, i, g.VirtualBytes, w.VirtualBytes)
		}
		wr := w.BoxedRows()
		if len(g.Rows) != len(wr) {
			t.Fatalf("%s: partition %d has %d rows, want %d", op, i, len(g.Rows), len(wr))
		}
		for j := range wr {
			if math.Float64bits(g.Rows[j].(float64)) != math.Float64bits(wr[j].(float64)) {
				t.Fatalf("%s: partition %d row %d = %v, want %v", op, i, j, g.Rows[j], wr[j])
			}
		}
	}
}

// Property: the typed operators followed by Box are the boxed operators, on
// any partitioning — a dataset without partitions (an empty choose result)
// and partitions without rows included.
func TestTypedOperatorsMatchBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		typed, boxed := randomInputs(rng)
		a, b, limit, scale := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.Float64()

		got, err := Map("m", scale, func(v float64) float64 { return a*v + b })([]*dataset.Dataset{typed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := MapRows("m", scale, func(r dataset.Row) dataset.Row { return a*r.(float64) + b })([]*dataset.Dataset{boxed})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "map", got, want)

		got, err = Filter("f", func(v float64) bool { return v < limit })([]*dataset.Dataset{typed})
		if err != nil {
			t.Fatal(err)
		}
		want, err = FilterRows("f", func(r dataset.Row) bool { return r.(float64) < limit })([]*dataset.Dataset{boxed})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "filter", got, want)

		// The layouts interoperate: a boxed operator reads a columnar input
		// and a typed operator a boxed one.
		got, err = Filter("f", func(v float64) bool { return v < limit })([]*dataset.Dataset{boxed})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "typed filter of boxed rows", got, want)
		got, err = FilterRows("f", func(r dataset.Row) bool { return r.(float64) < limit })([]*dataset.Dataset{typed})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "boxed filter of a column", got, want)

		got, err = Identity("i")([]*dataset.Dataset{typed})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "identity", got, boxed)
	}
}

// An operator's output, and any dataset built over one column, costs the
// same allocations at every partition count: its partitions are values in
// one block. Map and Filter allocate the values, the block and the dataset
// together with its column's header; FromSlice and Defer the last two (a
// deferred column's fill state lives in that header); Alias and Concat a
// block and a dataset.
func TestAllocationsFlatInPartitions(t *testing.T) {
	const rows = 1 << 10
	for _, parts := range []int{1, 4, 8, 64} {
		in := floatInput(rows, parts)
		vals := dataset.Flatten[float64](in[0])
		gates := []struct {
			name    string
			ceiling float64
			f       func()
		}{
			{"Map", 3, func() { _, _ = Map("m", 1.0, func(v float64) float64 { return 1.5*v + 1 })(in) }},
			{"Filter", 3, func() { _, _ = Filter("f", func(v float64) bool { return v < 0.5 })(in) }},
			{"FromSlice", 2, func() { dataset.FromSlice("s", vals, parts, 8) }},
			{"Defer", 2, func() { dataset.Defer("d", len(vals), copyInto, vals, parts, 8) }},
			{"Alias", 2, func() { in[0].Alias("a") }},
			{"Concat", 2, func() { dataset.Concat("c", in[0], in[0]) }},
		}
		for _, g := range gates {
			if allocs := testing.AllocsPerRun(10, g.f); allocs > g.ceiling {
				t.Errorf("%s over %d partitions: %.0f allocations, want <= %.0f", g.name, parts, allocs, g.ceiling)
			}
		}
	}
}

// copyInto is a deferred column's fill that copies vals.
func copyInto(vals, dst []float64) []float64 { return append(dst, vals...) }

// What Map and Filter emit is windows on one column, whatever the layout of
// their input, so that a whole-dataset consumer views it (dataset.Flatten
// allocates nothing) and a chain of them never copies; what Values returns
// of a partition has its capacity clipped, so that appending to it leaves
// the next partition intact.
func TestTypedOperatorsEmitOneColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	double := Map("m", 1.0, func(v float64) float64 { return 2 * v })
	positive := Filter("f", func(v float64) bool { return v > 0 })
	for trial := 0; trial < 50; trial++ {
		typed, boxed := randomInputs(rng)
		concat := dataset.Concat("c", typed, typed.Alias("again"))
		for _, in := range []*dataset.Dataset{typed, boxed, concat} {
			for name, op := range map[string]func([]*dataset.Dataset) (*dataset.Dataset, error){"map": double, "filter": positive} {
				out, err := op([]*dataset.Dataset{in})
				if err != nil {
					t.Fatal(err)
				}
				next, err := double([]*dataset.Dataset{out.Alias("fwd")})
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range []*dataset.Dataset{out, next} {
					var flat []float64
					if allocs := testing.AllocsPerRun(5, func() { flat = dataset.Flatten[float64](d) }); allocs != 0 {
						t.Fatalf("%s of %s: Flatten of the output allocated %.0f times", name, in.Name, allocs)
					}
					if len(flat) != d.NumRows() {
						t.Fatalf("%s of %s: view has %d rows, dataset %d", name, in.Name, len(flat), d.NumRows())
					}
					off := 0
					for i := range d.Parts {
						vals := dataset.Values[float64](&d.Parts[i])
						if cap(vals) != len(vals) {
							t.Fatalf("%s of %s: partition %d has spare capacity %d", name, in.Name, i, cap(vals)-len(vals))
						}
						if i+1 < len(d.Parts) && d.Parts[i+1].NumRows() > 0 {
							next := dataset.Values[float64](&d.Parts[i+1])
							want := math.Float64bits(next[0])
							_ = append(vals, math.NaN())
							if math.Float64bits(next[0]) != want {
								t.Fatalf("%s of %s: appending to partition %d overwrote partition %d", name, in.Name, i, i+1)
							}
						}
						for j, v := range vals {
							if math.Float64bits(flat[off+j]) != math.Float64bits(v) {
								t.Fatalf("%s of %s: view row %d differs from partition %d row %d", name, in.Name, off+j, i, j)
							}
						}
						off += len(vals)
					}
				}
			}
		}
	}
}

// Every emission of a fixed source has its own partitions: resizing or
// boxing one job's input must not reach the next job's, nor the dataset the
// source was built from.
func TestSourceFromDatasetEmissionsAreIndependent(t *testing.T) {
	base := dataset.FromSlice("in", []float64{1, 2, 3, 4}, 2, 100)
	src := SourceFromDataset(base)
	first, err := src(nil)
	if err != nil {
		t.Fatal(err)
	}
	first.SetVirtualBytes(200)
	first.Box()
	second, err := src(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{base, second} {
		if d.VirtualBytes() != 400 {
			t.Errorf("%s: scaling one emission left %d accounted bytes, want 400", d.Name, d.VirtualBytes())
		}
		for i := range d.Parts {
			p := &d.Parts[i]
			if p.Rows != nil {
				t.Errorf("%s: boxing one emission filled the view of partition %d", d.Name, i)
			}
		}
	}
	if got := dataset.Flatten[float64](second); len(got) != 4 || got[3] != 4 {
		t.Errorf("second emission = %v", got)
	}
}

// floatInput is a columnar operator input of rows values in [0, 1).
func floatInput(rows, parts int) []*dataset.Dataset {
	vals := make([]float64, rows)
	for i := range vals {
		vals[i] = float64(i%100) / 100
	}
	return []*dataset.Dataset{dataset.FromSlice("in", vals, parts, 8)}
}

// benchOperator runs op over 64 Ki rows in 1, 8 and 64 partitions: the
// allocations per operation read the same in all three.
func benchOperator(b *testing.B, op func([]*dataset.Dataset) (*dataset.Dataset, error)) {
	for _, parts := range []int{1, 8, 64} {
		in := floatInput(1<<16, parts)
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(8 << 16)
			for i := 0; i < b.N; i++ {
				if _, err := op(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMap is Map over benchOperator's inputs.
func BenchmarkMap(b *testing.B) {
	benchOperator(b, Map("m", 1.0, func(v float64) float64 { return 1.5*v + 1 }))
}

// BenchmarkFilter is Filter over benchOperator's inputs.
func BenchmarkFilter(b *testing.B) {
	benchOperator(b, Filter("f", func(v float64) bool { return v < 0.5 }))
}
