package vecmath

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"metadataflow/internal/stats"
)

const maxLog = 8.8029691931113054295988e+01 // math.tanh's MAXLOG

// nextBy returns x moved by n ulps.
func nextBy(x float64, n int) float64 {
	for ; n > 0; n-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; n < 0; n++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// operands are the special values every kernel is held at, each with both
// signs: zeros, subnormals, the smallest normal and the value below it, the
// branch points of math.tanh (0.625 and 0.5·MAXLOG) ±3 ulps, exp's overflow
// and its subnormal band (708 to 746 and past it), the ends of the cosine
// kernel's support and the values beside them, values past the cosine's
// octant reduction once times π/2 (4e8, 1e300), the infinities, NaNs of
// four payloads, and ordinary weights, samples, bandwidths and momenta.
var operands = func() []float64 {
	xs := []float64{
		0, math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e-300, 1e-20, 1e-8, 3e-3, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 0.9, 1, 1.0000000000000002,
		math.Nextafter(1, 0), 1.25, 2, 3, 7, 20, 88.72, 700,
		709.79, 710, 3e8, 4e8, 1e300, math.MaxFloat64, math.Inf(1),
		math.NaN(), math.Float64frombits(0x7ff8000000000000), math.Float64frombits(0x7ff800000000beef),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0x7ff4000000000000),
	}
	for _, c := range []float64{0.625, 0.5 * maxLog, 7.09782712893384e+02} {
		for n := -3; n <= 3; n++ {
			xs = append(xs, nextBy(c, n))
		}
	}
	for x := 708.0; x <= 746; x += 0.25 {
		xs = append(xs, x)
	}
	xs = append(xs, 744.44007192138127, 745.1332191019411, 745.13321910194122, 746, 800, 1074*math.Ln2, 1075*math.Ln2)
	out := make([]float64, 0, 2*len(xs))
	for _, x := range xs {
		out = append(out, x, -x)
	}
	return out
}()

// fill sets each of xs to an operand (a fifth of them) or to a draw at a
// scale a kernel meets: a weight or a sample, an exp argument, a u inside
// the cosine's support, a u far past its octant reduction.
func fill(rng *stats.RNG, xs []float64) []float64 {
	for i := range xs {
		switch r := rng.Float64(); {
		case r < 0.2:
			xs[i] = operands[rng.Intn(len(operands))]
		case r < 0.5:
			xs[i] = rng.Normal(0, 3)
		case r < 0.7:
			xs[i] = rng.Uniform(-1, 1)
		case r < 0.9:
			xs[i] = math.Copysign(math.Exp(rng.Uniform(-40, 8)), rng.Float64()-0.5)
		default:
			xs[i] = rng.Uniform(-1e9, 1e9)
		}
	}
	return xs
}

// diff returns the first index at which got and want differ in their bits,
// a NaN's payload included, or -1.
func diff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// kernels is the harness's table: every float64 kernel beside its plain-Go
// reference. shape gives the lengths of its operands at rows rows of n
// values, the outs it writes first; run and ref take the operands and two
// scalars, x and h for URow, the second the momentum for MomentumRows. A
// matrix kernel is held at every row count, an inPlace one also with its
// input as its output.
var kernels = []struct {
	name            string
	shape           func(n, rows int) []int
	outs            int
	matrix, inPlace bool
	run, ref        func(o [][]float64, s [2]float64)
}{
	{name: "TanhRow", shape: oneRow, outs: 1, inPlace: true,
		run: func(o [][]float64, _ [2]float64) { TanhRow(o[0], o[1]) },
		ref: func(o [][]float64, _ [2]float64) { tanhRowGo(o[0], o[1]) }},
	{name: "ExpRow", shape: oneRow, outs: 1, inPlace: true,
		run: func(o [][]float64, _ [2]float64) { ExpRow(o[0], o[1]) },
		ref: func(o [][]float64, _ [2]float64) { expRowGo(o[0], o[1]) }},
	{name: "DotRows", shape: func(n, rows int) []int { return []int{rows, rows * n, n} }, outs: 1, matrix: true,
		run: func(o [][]float64, _ [2]float64) { DotRows(o[0], o[1], o[2]) },
		ref: func(o [][]float64, _ [2]float64) { dotRowsGo(o[0], o[1], o[2]) }},
	{name: "AxpyRows", shape: func(n, rows int) []int { return []int{n, rows * n, rows} }, outs: 1, matrix: true,
		run: func(o [][]float64, _ [2]float64) { AxpyRows(o[0], o[1], o[2]) },
		ref: func(o [][]float64, _ [2]float64) { axpyRowsGo(o[0], o[1], o[2]) }},
	{name: "MomentumRows", shape: func(n, rows int) []int { return []int{rows * n, rows * n, n, rows} }, outs: 2, matrix: true,
		run: func(o [][]float64, s [2]float64) { MomentumRows(o[0], o[1], o[2], o[3], s[1]) },
		ref: func(o [][]float64, s [2]float64) { momentumRowsGo(o[0], o[1], o[2], o[3], s[1]) }},
	{name: "DotCols", shape: func(n, rows int) []int { return []int{n, rows * n, rows} }, outs: 1, matrix: true,
		run: func(o [][]float64, _ [2]float64) { DotCols(o[0], o[1], o[2]) },
		ref: func(o [][]float64, _ [2]float64) { dotColsGo(o[0], o[1], o[2]) }},
	{name: "MomentumCols", shape: func(n, rows int) []int { return []int{rows * n, rows * n, rows, n} }, outs: 2, matrix: true,
		run: func(o [][]float64, s [2]float64) { MomentumCols(o[0], o[1], o[2], o[3], s[1]) },
		ref: func(o [][]float64, s [2]float64) { momentumColsGo(o[0], o[1], o[2], o[3], s[1]) }},
	{name: "URow", shape: oneRow, outs: 1,
		run: func(o [][]float64, s [2]float64) { URow(o[0], o[1], s[0], s[1]) },
		ref: func(o [][]float64, s [2]float64) { uRowGo(o[0], o[1], s[0], s[1]) }},
	{name: "CosineRow", shape: oneRow, outs: 1,
		run: func(o [][]float64, _ [2]float64) { CosineRow(o[0], o[1]) },
		ref: func(o [][]float64, _ [2]float64) { cosineRowGo(o[0], o[1]) }},
}

// oneRow is the shape of a kernel over one row: an output as long as its
// input.
func oneRow(n, _ int) []int { return []int{n, n} }

// rowLengths are the row lengths n the kernels are held at: every length
// around the 4-wide block and the 8-wide pass (a tail of 0 to 3 values,
// scalar, overlapping or masked), dnn's 13-, 24- and 48-value rows, 29
// values (the column kernels' 24-wide pass and then both of their tails),
// and a kde fit's 400 samples. rowCounts are the row counts of the matrix kernels:
// every count around DotRows' passes of 8, 4, 2 and 1 rows, and dnn's 24
// hidden neurons.
var (
	rowLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 29, 48, 400}
	rowCounts  = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24}
)

// guard is the value after each output's end, which no kernel may change.
const guard = 12345.0

// TestRowKernelsMatchGo holds every kernel of the table to its reference
// bit for bit, on each path this process has: at every row length, every
// row count of a matrix kernel, operands drawn by fill, and x and h (or the
// momentum) running through the operands, into outputs that end before a
// guard value, and in place where a kernel allows it.
func TestRowKernelsMatchGo(t *testing.T) {
	for _, k := range kernels {
		rng := stats.NewRNG(17)
		counts, trials := []int{1}, 40
		if k.matrix {
			counts, trials = rowCounts, 8
		}
		step := 0
		for _, n := range rowLengths {
			for _, rows := range counts {
				for trial := 0; trial < trials; trial++ {
					ops := [][]float64{}
					for _, l := range k.shape(n, rows) {
						ops = append(ops, fill(rng, make([]float64, l)))
					}
					s := [2]float64{fill(rng, make([]float64, 1))[0], operands[step%len(operands)]}
					step++
					want := clone(ops)
					k.ref(want, s)
					OnEachPath(func(avx bool) {
						got := clone(ops)
						for o := range k.outs {
							got[o] = append(got[o], guard)[:len(ops[o])]
						}
						k.run(got, s)
						for o := range k.outs {
							if i := diff(got[o], want[o]); i >= 0 {
								t.Fatalf("avx=%v %s (%d rows of %d, s=%v): operand %d [%d] = %v (%016x), Go %v (%016x)",
									avx, k.name, rows, n, s, o, i, got[o][i], math.Float64bits(got[o][i]), want[o][i], math.Float64bits(want[o][i]))
							}
							if got[o][:len(ops[o])+1][len(ops[o])] != guard {
								t.Fatalf("avx=%v %s (%d rows of %d): wrote past the end of operand %d", avx, k.name, rows, n, o)
							}
						}
						if k.inPlace {
							in := slices.Clone(ops[1])
							k.run([][]float64{in, in}, s)
							if i := diff(in, want[0]); i >= 0 {
								t.Fatalf("avx=%v %s in place (%d values): [%d] of %v = %v, Go %v", avx, k.name, n, i, ops[1][i], in[i], want[0][i])
							}
						}
					})
				}
			}
		}
	}
}

func clone(ops [][]float64) [][]float64 {
	out := make([][]float64, len(ops))
	for i, o := range ops {
		out[i] = slices.Clone(o)
	}
	return out
}

// TestRowsCheckLengths holds every kernel of the table, on each path, to
// refusing operands whose lengths do not match, one value short in each
// operand in turn: the AVX kernels would read or write past it.
func TestRowsCheckLengths(t *testing.T) {
	OnEachPath(func(avx bool) {
		for _, k := range kernels {
			lens := k.shape(3, 2)
			for short := range lens {
				ops := make([][]float64, len(lens))
				for i, l := range lens {
					ops[i] = make([]float64, l)
				}
				ops[short] = ops[short][:lens[short]-1]
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("avx=%v: %s accepted operand %d one value short", avx, k.name, short)
						}
					}()
					k.run(ops, [2]float64{0.5, 0.9})
				}()
			}
		}
	})
}

// transpose returns the cols × rows transpose of w, which holds rows rows
// of cols values.
func transpose(w []float64, rows, cols int) []float64 {
	t := make([]float64, len(w))
	for r := range rows {
		for c := range cols {
			t[c*rows+r] = w[r*cols+c]
		}
	}
	return t
}

// TestColsMatchRows holds DotCols and MomentumCols over the transpose of a
// matrix to DotRows and MomentumRows over the matrix, bit for bit, on each
// path: the column kernels replace the row ones in dnn's first layer, whose
// NaN payloads must not change. A third of every operand is a NaN of one
// of four payloads, so that sums, products and steps meet two NaNs often.
func TestColsMatchRows(t *testing.T) {
	nans := []float64{math.NaN(), math.Float64frombits(0xfff8000000000000),
		math.Float64frombits(0x7ff800000000beef), math.Float64frombits(0x7ff4000000000000)}
	rng := stats.NewRNG(29)
	draw := func(n int) []float64 {
		xs := fill(rng, make([]float64, n))
		for i := range xs {
			if rng.Intn(3) == 0 {
				xs[i] = nans[rng.Intn(len(nans))]
			}
		}
		return xs
	}
	for _, rows := range rowCounts {
		for _, n := range rowLengths[:len(rowLengths)-1] {
			for trial := 0; trial < 4; trial++ {
				w, vel, x, y, lrg := draw(rows*n), draw(rows*n), draw(n), draw(rows), draw(rows)
				momentum := operands[trial*7%len(operands)]
				OnEachPath(func(avx bool) {
					what := fmt.Sprintf("avx=%v, %d rows of %d", avx, rows, n)
					rowY, colY := slices.Clone(y), slices.Clone(y)
					DotRows(rowY, w, x)
					DotCols(colY, transpose(w, rows, n), x)
					if i := diff(colY, rowY); i >= 0 {
						t.Fatalf("%s: DotCols [%d] = %016x, DotRows %016x", what, i, math.Float64bits(colY[i]), math.Float64bits(rowY[i]))
					}
					rowW, rowV := slices.Clone(w), slices.Clone(vel)
					colW, colV := transpose(w, rows, n), transpose(vel, rows, n)
					MomentumRows(rowW, rowV, x, lrg, momentum)
					MomentumCols(colW, colV, x, lrg, momentum)
					for name, pair := range map[string][2][]float64{"w": {colW, rowW}, "vel": {colV, rowV}} {
						got, want := transpose(pair[0], n, rows), pair[1]
						if i := diff(got, want); i >= 0 {
							t.Fatalf("%s: MomentumCols %s [%d] = %016x, MomentumRows %016x", what, name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				})
			}
		}
	}
}

// sweepRows calls f with every multiple of 2^-18 in [−50, 50], ascending,
// in rows of 4 099 values (the last one shorter), so that no row of 26
// million values is ever held. f must not keep a row.
func sweepRows(f func(row []float64)) {
	const step = 1.0 / (1 << 18)
	row := make([]float64, 0, 4099)
	for i := -50 << 18; i <= 50<<18; i++ {
		row = append(row, float64(i)*step)
		if len(row) == cap(row) {
			f(row)
			row = row[:0]
		}
	}
	f(row)
}

// checkSweep holds kernel to math's f bit for bit on each path, over every
// row sweep gives it, into a separate output and, if inPlace, in place.
func checkSweep(t *testing.T, name string, kernel func(dst, src []float64), f func(float64) float64,
	inPlace bool, sweep func(func(row []float64))) {
	t.Helper()
	OnEachPath(func(avx bool) {
		sweep(func(src []float64) {
			got := make([]float64, len(src))
			kernel(got, src)
			outs := [][]float64{got}
			if inPlace {
				outs = append(outs, slices.Clone(src))
				kernel(outs[1], outs[1])
			}
			for _, out := range outs {
				for i, x := range src {
					if want := f(x); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("avx=%v: %s(%v) = %v (%016x), math %v (%016x)", avx, name, x,
							out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
					}
				}
			}
		})
	})
}

// TestTanhRowMatchesMath and TestExpRowMatchesMath hold the rows to math
// over the 2^-18 sweep of [−50, 50].
func TestTanhRowMatchesMath(t *testing.T) {
	checkSweep(t, "TanhRow", TanhRow, math.Tanh, true, sweepRows)
}

func TestExpRowMatchesMath(t *testing.T) {
	checkSweep(t, "ExpRow", ExpRow, math.Exp, true, sweepRows)
}

// TestCosineRowMatchesMathCos sweeps the cosine kernel over its whole
// support, in 2^-18 steps, and at the values beside the octant boundary of
// math.cos's reduction (π/2·u = π/4) and inside the support's ends.
func TestCosineRowMatchesMathCos(t *testing.T) {
	checkSweep(t, "CosineRow", CosineRow, CosineTerm, false, func(f func(row []float64)) {
		var u []float64
		for i := -1 << 18; i <= 1<<18; i++ {
			u = append(u, float64(i)/(1<<18))
		}
		for _, e := range []float64{0.5, -0.5, 1, -1} {
			u = append(u, math.Nextafter(e, 0))
			if math.Abs(e) < 1 {
				u = append(u, math.Nextafter(e, 2*e))
			}
		}
		f(u)
	})
}

// BenchmarkKernels times every kernel on the /avx and the /go path at the
// sizes its workload gives it: dnn's 24 hidden sums (spread as a trained
// model's are) and 10 logits less their maximum, the row kernels at dnn's
// Defaults() layers, 24 rows of 48 (W1) and 10 rows of 24 (W2), the
// column kernels at its first layer, 48 rows of 24 (W1 transposed); a kde
// fit's 400 samples at x 0.1 and h 0.2, the cosine over the u inside the
// support; synthetic's scored pass over a job's 20 000 values.
func BenchmarkKernels(b *testing.B) {
	draw := func(rng *stats.RNG, n int, f func(*stats.RNG) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(rng)
		}
		return xs
	}
	weight := func(rng *stats.RNG) float64 { return rng.Normal(0, 0.1) }
	tanhIn := draw(stats.NewRNG(1), 24, func(rng *stats.RNG) float64 { return rng.Normal(0, 1.5) })
	expIn := draw(stats.NewRNG(1), 10, func(rng *stats.RNG) float64 { return -rng.Uniform(0, 12) })
	expIn[3] = 0
	samples := draw(stats.NewRNG(1), 400, func(rng *stats.RNG) float64 { return rng.Normal(0, 1) })
	u := make([]float64, len(samples))
	uRowGo(u, samples, 0.1, 0.2)
	var inside []float64
	for _, v := range u {
		if !(math.Abs(v) > 1) {
			inside = append(inside, v)
		}
	}
	tanhOut, expOut, cosOut := make([]float64, len(tanhIn)), make([]float64, len(expIn)), make([]float64, len(inside))
	vals := make([]uint32, 20_000)
	for i, rng := 0, stats.NewRNG(1); i < len(vals); i++ {
		vals[i] = uint32(rng.Intn(1 << 20))
	}
	// Each run calls its kernel n times, so that the loop adds no call.
	type bench struct {
		name string
		run  func(n int)
	}
	benches := []bench{
		{"TanhRow/24", func(n int) {
			for range n {
				TanhRow(tanhOut, tanhIn)
			}
		}},
		{"ExpRow/10", func(n int) {
			for range n {
				ExpRow(expOut, expIn)
			}
		}},
		{"URow/400", func(n int) {
			for range n {
				URow(u, samples, 0.1, 0.2)
			}
		}},
		{fmt.Sprintf("CosineRow/%d", len(inside)), func(n int) {
			for range n {
				CosineRow(cosOut, inside)
			}
		}},
		// synthetic's affine(1000, 4) followed by affine(100, 4).
		{"AffineSum/20000", func(n int) {
			for range n {
				sumSink = AffineSum(vals, 4900, 699_618_211)
			}
		}},
	}
	// dnn's first layer, column-major: 48 rows (inputs) of 24 (hidden
	// neurons), the transpose of DotRows/24x48's W1.
	{
		rng := stats.NewRNG(1)
		w, vel := draw(rng, 48*24, weight), draw(rng, 48*24, weight)
		x, sums, lrg := draw(rng, 48, weight), draw(rng, 24, weight), draw(rng, 24, weight)
		benches = append(benches,
			bench{"DotCols/48x24", func(n int) {
				for range n {
					DotCols(sums, w, x)
				}
			}},
			bench{"MomentumCols/48x24", func(n int) {
				for range n {
					MomentumCols(w, vel, x, lrg, 0.9)
				}
			}})
	}
	for _, shape := range []struct{ rows, n int }{{24, 48}, {10, 24}} {
		rng := stats.NewRNG(1)
		w, vel := draw(rng, shape.rows*shape.n, weight), draw(rng, shape.rows*shape.n, weight)
		x, y := draw(rng, shape.n, weight), draw(rng, shape.n, weight)
		sums, a := draw(rng, shape.rows, weight), draw(rng, shape.rows, weight)
		dims := fmt.Sprintf("/%dx%d", shape.rows, shape.n)
		benches = append(benches,
			bench{"DotRows" + dims, func(n int) {
				for range n {
					DotRows(sums, w, x)
				}
			}},
			bench{"AxpyRows" + dims, func(n int) {
				for range n {
					AxpyRows(y, w, a)
				}
			}},
			bench{"MomentumRows" + dims, func(n int) {
				for range n {
					MomentumRows(w, vel, x, a, 0.9)
				}
			}})
	}
	for _, k := range benches {
		OnEachPath(func(avx bool) {
			b.Run(k.name+map[bool]string{false: "/go", true: "/avx"}[avx], func(b *testing.B) { k.run(b.N) })
		})
	}
}

// sumSink keeps BenchmarkKernels' sums from being optimised away.
var sumSink uint64
