package kde

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metadataflow/internal/vecmath"
)

// kernelValues are the operands the density pass gives the kernels:
// ordinary values, the support's ends and the values beside them, and
// every kind of IEEE 754 edge, NaNs of three payloads and both signs among
// them, so that a result differing in one bit, a NaN's included, shows.
var kernelValues = []float64{
	0.5, -0.25, 3e-3, 0.9, -0.7, 1, -1, math.Nextafter(1, 0), math.Nextafter(-1, 0),
	math.Nextafter(1, 2), 0.1, -0.3, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 1e-310,
	3e8, -4e8, 1e300, // past the octant reduction's 2^29 once times π/2
	math.NaN(), math.Float64frombits(0xfff8000000000000),
	math.Float64frombits(0x7ff800000000beef),
}

// fillKernelValues fills xs with special values and with draws from
// [-scale, scale].
func fillKernelValues(rng *rand.Rand, xs []float64, scale float64) []float64 {
	for i := range xs {
		if rng.Intn(3) == 0 {
			xs[i] = kernelValues[rng.Intn(len(kernelValues))]
		} else {
			xs[i] = (2*rng.Float64() - 1) * scale
		}
	}
	return xs
}

// kernelLengths are the row lengths the kernels are held to: every length
// around the 4-wide block (the masked tail takes 1 to 3 values), and a
// Defaults() fit's 400 samples.
var kernelLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 400}

// onEachPathGuarded runs row on each kernel path into a row of n values
// followed by a guard value, and holds every path after the first (the
// plain-Go one) to it bit for bit; no path may write past the row's end.
func onEachPathGuarded(t *testing.T, what string, n int, row func(out []float64)) {
	t.Helper()
	const guard = 12345.0
	var want []float64
	vecmath.OnEachPath(func(avx bool) {
		got := make([]float64, n+1)
		got[n] = guard
		row(got[:n])
		if got[n] != guard {
			t.Fatalf("avx=%v: %s wrote past the row's end", avx, what)
		}
		if want == nil {
			want = got
			return
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("avx=%v: %s[%d] = %v (%016x), plain Go %v (%016x)", avx, what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}

// TestRowKernelsMatchGo holds the kernels of the density pass, vecmath's
// URow and CosineRow, on each path to the plain-Go one bit for bit: URow
// at every x and h of the special values, CosineRow over values inside the
// support and over special ones, for every length in kernelLengths.
func TestRowKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range kernelLengths {
		for trial := 0; trial < 8; trial++ {
			samples := fillKernelValues(rng, make([]float64, n), 4)
			x := kernelValues[trial*5%len(kernelValues)]
			if trial%2 == 0 {
				x = rng.NormFloat64()
			}
			for _, h := range []float64{0.2, 1e-300, 3, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64} {
				onEachPathGuarded(t, fmt.Sprintf("URow(n=%d, x=%v, h=%v)", n, x, h), n, func(u []float64) {
					vecmath.URow(u, samples, x, h)
				})
			}
			for _, scale := range []float64{1, 1e9} {
				u := fillKernelValues(rng, make([]float64, n), scale)
				onEachPathGuarded(t, fmt.Sprintf("CosineRow(n=%d, scale %g)", n, scale), n, func(c []float64) {
					vecmath.CosineRow(c, u)
				})
			}
		}
	}
}

// TestGaussianExpsMatchGaussian holds the Gaussian's row, gaussianExps
// over vecmath.ExpRow, to gaussian term by term, bit for bit, on each
// path: e[j]/√(2π) is gaussian(u[j]). The u run through the band in which
// e^(−u²/2) stops being normal, |u| from 37.5 to 39 in 2^-10 steps (the
// exponent from −703 to −760.5: normal, then subnormal past −708.4, then
// zero past −745.1, all of which ExpRow leaves to math.Exp), and beyond it,
// ordinary values, ±0, ±Inf and NaNs of three payloads, at every row
// length around ExpRow's 4-wide block.
func TestGaussianExpsMatchGaussian(t *testing.T) {
	var us []float64
	for i := 37.5 * 1024; i <= 39*1024; i++ {
		us = append(us, i/1024, -i/1024)
	}
	us = append(us, 38.6, 40, 1e3, 1e155, 1e200, math.MaxFloat64, 0, math.Copysign(0, -1),
		0.5, -1.25, 3, 1e-200, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff800000000beef))
	rows := [][]float64{us}
	for n := 1; n <= 9; n++ {
		rows = append(rows, us[len(us)-n:], us[:n])
	}
	vecmath.OnEachPath(func(avx bool) {
		for _, u := range rows {
			e := make([]float64, len(u))
			gaussianExps(e, u)
			for j, v := range u {
				got, want := e[j]/math.Sqrt(2*math.Pi), gaussian(v)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("avx=%v: gaussianExps gives %v (%016x) at u = %v, gaussian %v (%016x)", avx,
						got, math.Float64bits(got), v, want, math.Float64bits(want))
				}
			}
		}
	})
}
