package vecmath

import (
	"fmt"
	"math"
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

// edgeValues are the arguments at every boundary of both kernels, each with
// both signs: zeros, subnormals, the branch points of math.tanh (0.625 and
// 0.5·MAXLOG) ±1 ulp, exp's overflow and its subnormal band (−708 to −746
// and below), the infinities and NaNs of several payloads.
func edgeValues() []float64 {
	xs := []float64{
		0, math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e-300, 1e-20, 1e-8, 0.5, 1, 2, 20, 88.72, 700,
		7.09782712893384e+02, 709.79, 710, 1e300, math.MaxFloat64, math.Inf(1),
		math.NaN(), math.Float64frombits(0x7ff800000000beef), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0x7ff4000000000000),
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
}

// sameBits fails t unless got[i] and want[i] have the same bits, a NaN's
// payload included.
func sameBits(t *testing.T, what string, src, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s(%v) [%d of %d] = %v (%016x), math %v (%016x)", what, src[i], i, len(src),
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkRow holds row to math's f on src, into a separate dst and in place.
func checkRow(t *testing.T, what string, row func(dst, src []float64), f func(float64) float64, src []float64) {
	t.Helper()
	want := make([]float64, len(src))
	for i, x := range src {
		want[i] = f(x)
	}
	got := make([]float64, len(src))
	row(got, src)
	sameBits(t, what, src, got, want)
	inPlace := append([]float64(nil), src...)
	row(inPlace, inPlace)
	sameBits(t, what+" in place", src, inPlace, want)
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

// forRows calls f with rows of every length from 0 to 17, 24 and 400 of
// edge, random and random-scale values, with the edge values at every lane
// of a block, then with the edge values as one row and with the sweep.
func forRows(f func(row []float64)) {
	rng := stats.NewRNG(5)
	edge := edgeValues()
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 400} {
		for trial := 0; trial < 40; trial++ {
			row := make([]float64, n)
			for i := range row {
				switch r := rng.Float64(); {
				case r < 0.2:
					row[i] = edge[rng.Intn(len(edge))]
				case r < 0.6:
					row[i] = rng.Normal(0, 3)
				default:
					row[i] = math.Copysign(math.Exp(rng.Uniform(-40, 8)), rng.Float64()-0.5)
				}
			}
			f(row)
		}
	}
	f(edge)
	sweepRows(f)
}

// TestTanhRowMatchesMath holds TanhRow to math.Tanh bit for bit on every
// path this machine runs.
func TestTanhRowMatchesMath(t *testing.T) {
	for _, avx := range testPaths() {
		onPath(avx, func() {
			forRows(func(row []float64) {
				checkRow(t, fmt.Sprintf("avx=%v TanhRow", avx), TanhRow, math.Tanh, row)
			})
		})
	}
}

// TestExpRowMatchesMath holds ExpRow to math.Exp bit for bit on every path
// this machine runs.
func TestExpRowMatchesMath(t *testing.T) {
	for _, avx := range testPaths() {
		onPath(avx, func() {
			forRows(func(row []float64) {
				checkRow(t, fmt.Sprintf("avx=%v ExpRow", avx), ExpRow, math.Exp, row)
			})
		})
	}
}

// TestRowsCheckLengths holds both kernels, on every path, to refusing an
// output that is not as long as the input, which the AVX kernels would write
// past.
func TestRowsCheckLengths(t *testing.T) {
	for _, avx := range testPaths() {
		for name, row := range map[string]func(dst, src []float64){"TanhRow": TanhRow, "ExpRow": ExpRow} {
			onPath(avx, func() {
				defer func() {
					if recover() == nil {
						t.Errorf("avx=%v: %s accepted an output shorter than its input", avx, name)
					}
				}()
				row(make([]float64, 3), make([]float64, 5))
			})
		}
	}
}

// BenchmarkTanhRow and BenchmarkExpRow time a row the size dnn's forward
// pass gives each: the 24 hidden pre-activations, spread as a trained
// model's are, and the 10 logits less their maximum.
func BenchmarkTanhRow(b *testing.B) {
	rng := stats.NewRNG(1)
	src := make([]float64, 24)
	for i := range src {
		src[i] = rng.Normal(0, 1.5)
	}
	benchRow(b, TanhRow, src)
}

func BenchmarkExpRow(b *testing.B) {
	rng := stats.NewRNG(1)
	src := make([]float64, 10)
	for i := range src {
		src[i] = -rng.Uniform(0, 12)
	}
	src[3] = 0
	benchRow(b, ExpRow, src)
}

func benchRow(b *testing.B, row func(dst, src []float64), src []float64) {
	dst := make([]float64, len(src))
	for _, path := range []struct {
		name string
		avx  bool
	}{{"avx", true}, {"go", false}} {
		b.Run(path.name, func(b *testing.B) {
			if path.avx && !canAVX() {
				b.Skip("the kernels do not run as AVX here")
			}
			onPath(path.avx, func() {
				for i := 0; i < b.N; i++ {
					row(dst, src)
				}
			})
		})
	}
}
