package synthetic

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/stats"
	"metadataflow/internal/vecmath"
)

// refOp is mathOp's operation on one value, written out row by row.
func refOp(v, w int64, opsPerItem int) int64 {
	for k := 0; k < opsPerItem; k++ {
		v = (v*w + int64(k) + 1) % 1_000_000_007
	}
	return v
}

// overValues is a one-partition pairs dataset holding vals (each below p),
// every key "kkkkkkkkk".
func overValues(vals []int64) *dataset.Dataset {
	c := pairs{keys: strings.Repeat("k", keyLen*len(vals)), vals: make([]uint32, len(vals))}
	for i, v := range vals {
		c.vals[i] = uint32(v)
	}
	return dataset.Over("values", c, dataset.Windows(len(vals), 1, 1))
}

// mathOp applies opsPerItem steps to every value as the loop refOp does,
// and sums the scored output's values, on each kernel path, over the
// paper's w progression and past p, at the edges of the value range and at
// random values below p.
func TestMathOpMatchesIteratedReference(t *testing.T) {
	const p = 1_000_000_007
	vals := []int64{0, 1, 1<<20 - 1, p - 1}
	rng := stats.NewRNG(1)
	for i := 0; i < 64; i++ {
		vals = append(vals, rng.Int63()%p)
	}
	in := []*dataset.Dataset{overValues(vals)}
	ws := []int64{p, p + 7, p + 70, 9_000_000_000}
	for w := int64(10); w <= 1_000_000_000; w *= 10 {
		ws = append(ws, w)
	}
	vecmath.OnEachPath(func(avx bool) {
		for n := 1; n <= 8; n++ {
			for _, w := range ws {
				out, err := mathOp("op", 1, w, n, true)(in)
				if err != nil {
					t.Fatal(err)
				}
				var sum uint64
				for i, r := range out.Rows() {
					want := refOp(vals[i], w, n)
					if got := r.(Pair).Val; got != want {
						t.Fatalf("avx=%v n=%d w=%d v=%d: got %d, want %d", avx, n, w, vals[i], got, want)
					}
					sum += uint64(want)
				}
				if got := out.Parts[0].Col.(*pairs).sum; got != sum {
					t.Fatalf("avx=%v n=%d w=%d: sum %d, want %d", avx, n, w, got, sum)
				}
			}
		}
	})
}

// The reference loop multiplies a value below p by w in int64, so it is
// exact only while w < (2^63 - 1)/p. branchValues stays below that at 120
// branches, more than any workload or experiment builds (the topology
// sweep's |B1 x B2| is 120).
func TestBranchValuesKeepReferenceExact(t *testing.T) {
	const limit = (1<<63 - 1) / 1_000_000_007
	specs, _ := branchValues(120, "op")
	for _, s := range specs {
		if w := int64(s.Hint); w >= limit {
			t.Errorf("branch value %d >= %d: v*w overflows int64", w, limit)
		}
	}
}

// mathOp reads every partition as its window on one column: over one
// generated column, or an alias of it, it shares that column's keys and its
// rows are the per-row reference's, partition by partition. A Concat of two
// branches — whose key slices differ, or whose windows restart on one
// column, or whose windows continue from one column onto another — is not
// one column's consecutive windows, and mathOp refuses it.
func TestMathOpMatchesPerRowReference(t *testing.T) {
	const w, ops, scale = 1000, 3, 0.5
	small := func(seed int64, rows, parts int) *dataset.Dataset {
		p := Defaults()
		p.Rows, p.Partitions, p.Seed = rows, parts, seed
		return Generate(p)
	}
	a, b := small(1, 101, 4), small(2, 101, 3)
	// c is rows [101, 202) of another column: its window starts where a's
	// last one ends, so only the keys tell the two columns apart.
	c := dataset.New("c")
	c.Parts = small(3, 202, 2).Parts[1:]
	cases := []struct {
		name      string
		in        *dataset.Dataset
		oneColumn bool
	}{
		{"one column", a, true},
		{"an alias of one column", a.Alias("a"), true},
		{"a Concat of two branches with different keys", dataset.Concat("c", a, b), false},
		{"a Concat of one column twice", dataset.Concat("c", a, a.Alias("again")), false},
		{"a Concat of two branches whose windows continue", dataset.Concat("c", a, c), false},
	}
	for _, tc := range cases {
		if _, _, _, ok := oneColumn(tc.in); ok != tc.oneColumn {
			t.Errorf("%s: input is one column's consecutive windows = %v, want %v", tc.name, ok, tc.oneColumn)
		}
		out, err := mathOp("op", scale, w, ops, true)([]*dataset.Dataset{tc.in})
		if !tc.oneColumn {
			if err == nil || !strings.Contains(err.Error(), "not consecutive windows of one pairs column") {
				t.Errorf("%s: err = %v, want the input refused", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Parts) != len(tc.in.Parts) {
			t.Fatalf("%s: %d partitions, want %d", tc.name, len(out.Parts), len(tc.in.Parts))
		}
		for i := range tc.in.Parts {
			p := &tc.in.Parts[i]
			got, want := out.Parts[i].BoxedRows(), p.BoxedRows()
			if len(got) != len(want) {
				t.Fatalf("%s: partition %d has %d rows, want %d", tc.name, i, len(got), len(want))
			}
			for j, r := range want {
				in := r.(Pair)
				if ref := (Pair{Key: in.Key, Val: refOp(in.Val, w, ops)}); got[j].(Pair) != ref {
					t.Fatalf("%s: partition %d row %d = %+v, want %+v", tc.name, i, j, got[j], ref)
				}
			}
			if vb := int64(float64(p.VirtualBytes) * scale); out.Parts[i].VirtualBytes != vb {
				t.Errorf("%s: partition %d accounts %d bytes, want %d", tc.name, i, out.Parts[i].VirtualBytes, vb)
			}
		}
	}
}

// What window returns of a partition has its capacity clipped: appending to
// its values leaves the next partition intact.
func TestWindowLeavesNeighbourIntact(t *testing.T) {
	p := Defaults()
	p.Rows, p.Partitions = 50, 4
	in := Generate(p)
	out, err := mathOp("op", 1, 10, 2, true)([]*dataset.Dataset{in})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{in, out} {
		for i := 0; i+1 < len(d.Parts); i++ {
			next, _ := window(&d.Parts[i+1])
			val := next[0]
			cur, _ := window(&d.Parts[i])
			_ = append(cur, val+1)
			if next[0] != val {
				t.Errorf("%s: appending to partition %d overwrote partition %d's first row", d.Name, i, i+1)
			}
		}
	}
}

// What Generate and mathOp emit costs its payload and two allocations, the
// partition block and the dataset together with its column's header, at
// every partition count. Over one column mathOp's output is a view, which
// has no payload: its allocations do not grow with the rows. A Concat, of
// one column twice or of two views, is refused.
func TestOutputsCostPayloadPlusTwo(t *testing.T) {
	for _, parts := range []int{1, 4, 64} {
		p := Defaults()
		p.Rows, p.Partitions = 1<<10, parts
		in := Generate(p)
		op := mathOp("op", 1, 10, 2, true)
		one := []*dataset.Dataset{in}
		two := []*dataset.Dataset{dataset.Concat("c", in, in.Alias("a"))}
		first, err := op(one)
		if err != nil {
			t.Fatal(err)
		}
		second, err := mathOp("op", 1, 100, 3, true)(one)
		if err != nil {
			t.Fatal(err)
		}
		affine := []*dataset.Dataset{dataset.Concat("c", first, second)}
		gates := []struct {
			name    string
			payload float64
			f       func()
		}{
			// The generator (3), the keys and the values.
			{"Generate", 5, func() { Generate(p) }},
			// Nothing: the keys and base values are the input's.
			{"mathOp over one column", 0, func() { _, _ = op(one) }},
		}
		for _, g := range gates {
			if allocs := testing.AllocsPerRun(10, g.f); allocs > g.payload+2 {
				t.Errorf("%s over %d partitions: %.0f allocations, want <= %.0f (payload) + 2", g.name, parts, allocs, g.payload)
			}
		}
		for name, ins := range map[string][]*dataset.Dataset{"a Concat": two, "a Concat of affine inputs": affine} {
			if _, err := op(ins); err == nil {
				t.Errorf("mathOp over %s of %d partitions: no error, want the input refused", name, parts)
			}
		}
	}
	allocs := func(rows int) float64 {
		p := Defaults()
		p.Rows = rows
		in := []*dataset.Dataset{Generate(p)}
		op := mathOp("op", 1, 10, 2, true)
		return testing.AllocsPerRun(10, func() { _, _ = op(in) })
	}
	if small, large := allocs(4_000), allocs(20_000); small != large {
		t.Errorf("mathOp over a whole column allocates %.0f times at 4 000 rows and %.0f at 20 000", small, large)
	}
}

// refRows is what the chain of operators (w[k], ops[k]) makes of d, row by
// row through refOp: the rows of every partition, materialised.
func refRows(d *dataset.Dataset, w []int64, ops []int) [][]Pair {
	out := make([][]Pair, len(d.Parts))
	for i := range d.Parts {
		for _, r := range d.Parts[i].BoxedRows() {
			pr := r.(Pair)
			for k := range w {
				pr.Val = refOp(pr.Val, w[k], ops[k])
			}
			out[i] = append(out[i], pr)
		}
	}
	return out
}

// A chain of one to three mathOps gives the rows, column sum (of a scored
// output) and int_value score of the reference that materialises every step
// through refOp: over generated datasets and consecutive partial windows of
// one, at ops per item 1 to 8 and w past p. Windows of one column with gaps
// and a Concat of two branches are scored by the evaluator's scan, and
// mathOp refuses them.
func TestAffineViewMatchesMaterialised(t *testing.T) {
	const p = 1_000_000_007
	gen := func(rows, parts int, seed int64) *dataset.Dataset {
		q := Defaults()
		q.Rows, q.Partitions, q.Seed = rows, parts, seed
		return Generate(q)
	}
	a := gen(61, 5, 1)
	b1, err := mathOp("b1", 1, 1000, 3, true)([]*dataset.Dataset{gen(47, 3, 2)})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := mathOp("b2", 1, p+7, 2, true)([]*dataset.Dataset{a})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name      string
		in        *dataset.Dataset
		oneColumn bool
	}{
		{"a generated column", a, true},
		{"one partition", gen(9, 1, 3), true},
		{"windows 1-3 of a column", dataset.FromPartitions("mid", slices.Clone(a.Parts[1:4])), true},
		{"windows 0, 2 and 4 of a column", dataset.FromPartitions("gaps", []dataset.Partition{a.Parts[0], a.Parts[2], a.Parts[4]}), false},
		{"a Concat of two branches", dataset.Concat("c", b1, b2), false},
	}
	ws := []int64{10, 1000, p, p + 7, 9_000_000_000}
	score := sumEvaluator().Fn
	for _, tc := range inputs {
		// The inputs themselves are scored by summing their values: none is
		// a whole view column.
		var fsum float64
		for _, r := range tc.in.Rows() {
			fsum += float64(r.(Pair).Val)
		}
		if got, want := score(tc.in), fsum/float64(tc.in.NumRows()); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: int_value %v, want %v", tc.name, got, want)
		}
		if !tc.oneColumn {
			if _, err := mathOp("op", 1, 10, 1, true)([]*dataset.Dataset{tc.in}); err == nil {
				t.Fatalf("%s: no error, want the input refused", tc.name)
			}
			continue
		}
		for chain := 1; chain <= 3; chain++ {
			for n := 1; n <= 8; n++ {
				for j := range ws {
					w, ops := make([]int64, chain), make([]int, chain)
					// Only the last operator may be scored, and it is in
					// every other chain: an unscored view is not summed,
					// and the evaluator scans it.
					lastScored := (j+n)%2 == 0
					out := tc.in
					for k := 0; k < chain; k++ {
						w[k], ops[k] = ws[(j+k)%len(ws)], (n+k-1)%8+1
						scored := k == chain-1 && lastScored
						out, err = mathOp("op", 1, w[k], ops[k], scored)([]*dataset.Dataset{out})
						if err != nil {
							t.Fatal(err)
						}
					}
					name := fmt.Sprintf("%s, w=%v, ops=%v", tc.name, w, ops)
					want := refRows(tc.in, w, ops)
					var sum uint64
					var fsum float64
					rows := 0
					for i := range out.Parts {
						got := out.Parts[i].BoxedRows()
						if len(got) != len(want[i]) {
							t.Fatalf("%s: partition %d has %d rows, want %d", name, i, len(got), len(want[i]))
						}
						for r, row := range got {
							if row.(Pair) != want[i][r] {
								t.Fatalf("%s: partition %d row %d = %+v, want %+v", name, i, r, row, want[i][r])
							}
							sum += uint64(want[i][r].Val)
							fsum += float64(want[i][r].Val)
							rows++
						}
					}
					c, lo, hi, ok := oneColumn(out)
					if !ok || lo != 0 || hi != c.Len() || !c.mapped {
						t.Fatalf("%s: the output is not one whole view column", name)
					}
					if lastScored && !c.summed {
						t.Fatalf("%s: a scored output is not summed", name)
					}
					if !lastScored && chain > 1 && c.summed {
						t.Fatalf("%s: an unscored view was summed", name)
					}
					if c.summed && c.sum != sum {
						t.Fatalf("%s: column sum %d, want %d", name, c.sum, sum)
					}
					if got, want := score(out), fsum/float64(rows); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: int_value %v, want %v", name, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkMathOp runs one branch's operator over a 20 000-row input, the
// size lib-kernel's synthetic jobs use, at 1, 4 and 16 ops per item: the
// host cost of a value is one affine step at every count. chain is
// second_op over first_op's output, a view whose map the operator composes
// into its own; the other cases read the generated column.
func BenchmarkMathOp(b *testing.B) {
	p := Defaults()
	p.Rows = 20_000
	in := []*dataset.Dataset{Generate(p)}
	for _, ops := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			benchOp(b, mathOp("op", 1, 1000, ops, true), in)
		})
	}
	first, err := mathOp("first_op", 1, 1000, 4, false)(in)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("chain", func(b *testing.B) {
		benchOp(b, mathOp("second_op", 1, 100, 4, true), []*dataset.Dataset{first})
	})
}

func benchOp(b *testing.B, op func([]*dataset.Dataset) (*dataset.Dataset, error), in []*dataset.Dataset) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := op(in); err != nil {
			b.Fatal(err)
		}
	}
}
