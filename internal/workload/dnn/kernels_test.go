package dnn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"metadataflow/internal/stats"
	"metadataflow/internal/vecmath"
)

// onGoPath runs f with vecmath's kernels on the plain-Go path, and then
// restores the choice.
func onGoPath(f func()) {
	vecmath.OnEachPath(func(avx bool) {
		if !avx {
			f()
		}
	})
}

// needAVX skips a test that compares the AVX kernels with the plain-Go
// ones where this process has no AVX path.
func needAVX(t *testing.T) {
	t.Helper()
	has := false
	vecmath.OnEachPath(func(avx bool) { has = has || avx })
	if !has {
		t.Skip("the CPU or the OS does not support AVX")
	}
}

// kernelValues are the operands the layers give the kernels: ordinary
// values and every kind of IEEE 754 edge, NaNs of three payloads and both
// signs among them, so that a result differing in one bit, a NaN's
// included, shows.
var kernelValues = []float64{
	0.5, -1.25, 3e-3, 0.9, -7, 1.0000000000000002, 0.1, -0.3,
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 1e-310,
	math.NaN(), math.Float64frombits(0xfff8000000000000),
	math.Float64frombits(0x7ff800000000beef),
}

func fillKernelValues(rng *stats.RNG, xs []float64) []float64 {
	for i := range xs {
		if rng.Float64() < 0.5 {
			xs[i] = kernelValues[rng.Intn(len(kernelValues))]
		} else {
			xs[i] = rng.Normal(0, 1)
		}
	}
	return xs
}

// TestRowKernelsMatchGo holds the row kernels a layer runs through,
// vecmath's DotRows, AxpyRows and MomentumRows, on the AVX path to the
// plain-Go one bit for bit, at every row length around the 4-wide block,
// at the model's 13-, 24- and 48-value rows, and at 0 to 17 and 24 rows
// (DotRows takes rows in groups of 8, 4, 2 and then one at a time).
func TestRowKernelsMatchGo(t *testing.T) {
	needAVX(t)
	rng := stats.NewRNG(17)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 24, 48} {
		for rows := 0; rows <= 24; rows++ {
			if rows > 17 && rows < 24 {
				continue
			}
			for trial := 0; trial < 8; trial++ {
				w := fillKernelValues(rng, make([]float64, rows*n))
				vel := fillKernelValues(rng, make([]float64, rows*n))
				x := fillKernelValues(rng, make([]float64, n))
				a := fillKernelValues(rng, make([]float64, rows))
				y := fillKernelValues(rng, make([]float64, n))
				sums := fillKernelValues(rng, make([]float64, rows))
				momentum := kernelValues[trial%len(kernelValues)]
				if trial%2 == 0 {
					momentum = 0.9
				}
				// outs are the kernels' outputs on one path: DotRows' sums,
				// AxpyRows' y, MomentumRows' w and vel.
				var want [][]float64
				vecmath.OnEachPath(func(avx bool) {
					outs := [][]float64{slices.Clone(sums), slices.Clone(y), slices.Clone(w), slices.Clone(vel)}
					vecmath.DotRows(outs[0], w, x)
					vecmath.AxpyRows(outs[1], w, a)
					vecmath.MomentumRows(outs[2], outs[3], x, a, momentum)
					if !avx {
						want = outs
						return
					}
					for i, what := range []string{"DotRows y", "AxpyRows y", "MomentumRows w", "MomentumRows vel"} {
						sameBits(t, fmt.Sprintf("%s (%d rows of %d)", what, rows, n), outs[i], want[i])
					}
				})
			}
		}
	}
}

// TestRowKernelsCheckShape holds each kernel path to refusing a matrix that
// is not rows × row length, which the AVX kernels would read past.
func TestRowKernelsCheckShape(t *testing.T) {
	short := map[string]func(){
		"DotRows": func() { vecmath.DotRows(make([]float64, 2), make([]float64, 5), make([]float64, 3)) },
		"AxpyRows": func() {
			vecmath.AxpyRows(make([]float64, 3), make([]float64, 5), make([]float64, 2))
		},
		"MomentumRows w": func() {
			vecmath.MomentumRows(make([]float64, 5), make([]float64, 6), make([]float64, 3), make([]float64, 2), 0.5)
		},
		"MomentumRows vel": func() {
			vecmath.MomentumRows(make([]float64, 6), make([]float64, 5), make([]float64, 3), make([]float64, 2), 0.5)
		},
	}
	vecmath.OnEachPath(func(avx bool) {
		for name, call := range short {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("avx=%v: %s accepted a short matrix", avx, name)
					}
				}()
				call()
			}()
		}
	})
}
