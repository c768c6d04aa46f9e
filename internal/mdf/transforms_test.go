package mdf

import (
	"math"
	"math/rand"
	"testing"

	"metadataflow/internal/dataset"
)

// randomInputs builds the same random values twice, as a columnar and as a
// boxed dataset, over the same random partitioning (empty partitions
// included) with the same random accounted sizes.
func randomInputs(rng *rand.Rand) (typed, boxed *dataset.Dataset) {
	typed, boxed = dataset.New("typed"), dataset.New("boxed")
	for p := rng.Intn(5); p > 0; p-- {
		vals := make([]float64, rng.Intn(4)*rng.Intn(20))
		rows := make([]dataset.Row, len(vals))
		for i := range vals {
			vals[i] = rng.NormFloat64()
			rows[i] = vals[i]
		}
		vb := rng.Int63n(1 << 40)
		typed.Parts = append(typed.Parts, dataset.NewPartition(dataset.Col[float64](vals), vb))
		boxed.Parts = append(boxed.Parts, dataset.NewPartition(dataset.Col[dataset.Row](rows), vb))
	}
	return typed, boxed
}

// sameResult reports how the boxed view of got differs from want, partition
// by partition, row by row and in accounted size.
func sameResult(t *testing.T, op string, got, want *dataset.Dataset) {
	t.Helper()
	got.Box()
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("%s: %d partitions, want %d", op, len(got.Parts), len(want.Parts))
	}
	for i, w := range want.Parts {
		g := got.Parts[i]
		if g.VirtualBytes != w.VirtualBytes {
			t.Fatalf("%s: partition %d accounts %d bytes, want %d", op, i, g.VirtualBytes, w.VirtualBytes)
		}
		if len(g.Rows) != len(w.Rows) {
			t.Fatalf("%s: partition %d has %d rows, want %d", op, i, len(g.Rows), len(w.Rows))
		}
		for j := range w.Rows {
			if math.Float64bits(g.Rows[j].(float64)) != math.Float64bits(w.Rows[j].(float64)) {
				t.Fatalf("%s: partition %d row %d = %v, want %v", op, i, j, g.Rows[j], w.Rows[j])
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

// Map and Filter allocate one column per dataset — the values and their
// header, with the dataset, its partition table and the partition ends —
// and per partition the struct and the column header: nothing per row.
func TestTypedOperatorsAllocatePerPartition(t *testing.T) {
	const parts = 8
	ops := map[string]func([]*dataset.Dataset) (*dataset.Dataset, error){
		"map":    Map("m", 1.0, func(v float64) float64 { return 1.5*v + 1 }),
		"filter": Filter("f", func(v float64) bool { return v < 0.5 }),
	}
	for name, op := range ops {
		for _, rows := range []int{parts, 1 << 10, 1 << 16} {
			in := floatInput(rows, parts)
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := op(in); err != nil {
					t.Fatal(err)
				}
			})
			if ceiling := float64(5 + 2*parts); allocs > ceiling {
				t.Errorf("%s over %d rows in %d partitions: %.0f allocations, want <= %.0f", name, rows, parts, allocs, ceiling)
			}
		}
	}
}

// What Map and Filter emit is cut from one column, whatever the layout of
// their input, so that a whole-dataset consumer views it (dataset.Flatten
// allocates nothing) and a chain of them never copies; the partitions keep
// their clipped capacity.
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
					for i, p := range d.Parts {
						vals := dataset.Values[float64](p)
						if cap(vals) != len(vals) {
							t.Fatalf("%s of %s: partition %d has spare capacity %d", name, in.Name, i, cap(vals)-len(vals))
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
	first.ScaleVirtualBytes(0.5)
	first.Box()
	second, err := src(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{base, second} {
		if d.VirtualBytes() != 400 {
			t.Errorf("%s: scaling one emission left %d accounted bytes, want 400", d.Name, d.VirtualBytes())
		}
		for i, p := range d.Parts {
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

func BenchmarkMap(b *testing.B) {
	in := floatInput(1<<16, 8)
	op := Map("m", 1.0, func(v float64) float64 { return 1.5*v + 1 })
	b.ReportAllocs()
	b.SetBytes(8 << 16)
	for i := 0; i < b.N; i++ {
		if _, err := op(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilter(b *testing.B) {
	in := floatInput(1<<16, 8)
	op := Filter("f", func(v float64) bool { return v < 0.5 })
	b.ReportAllocs()
	b.SetBytes(8 << 16)
	for i := 0; i < b.N; i++ {
		if _, err := op(in); err != nil {
			b.Fatal(err)
		}
	}
}
