package kde

import (
	"math"
	"testing"

	"metadataflow/internal/vecmath"
)

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
