package dnn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"metadataflow/internal/cpufeat"
	"metadataflow/internal/stats"
)

// onPath runs f with the row kernels on the AVX path or on the plain-Go
// one, and then restores the choice.
func onPath(avx bool, f func()) {
	saved := useAVX
	useAVX = avx
	defer func() { useAVX = saved }()
	f()
}

func needAVX(t *testing.T) {
	t.Helper()
	if !cpufeat.HasAVX() {
		t.Skip("the CPU or the OS does not support AVX")
	}
}

// kernelValues are the operands the kernels see: ordinary values and every
// kind of IEEE 754 edge, NaNs of three payloads and both signs among them,
// so that a result differing in one bit, a NaN's included, shows.
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

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%016x), Go kernel %v (%016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRowKernelsMatchGo holds the AVX kernels to the Go ones bit for bit, at
// every row length around the 4-wide block (the scalar tail takes 0 to 3
// values), at the model's 13-, 24- and 48-value rows, and at 0 to 17 and 24
// rows (dotRows takes rows in groups of 8 and then one at a time).
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
				momentum := kernelValues[trial%len(kernelValues)]
				if trial%2 == 0 {
					momentum = 0.9
				}
				what := fmt.Sprintf(" (%d rows of %d)", rows, n)

				sums := fillKernelValues(rng, make([]float64, rows))
				sumsGo := append([]float64(nil), sums...)
				dotRowsGo(sumsGo, w, x)
				dotRowsAVX(sums, w, x)
				sameBits(t, "dotRows y"+what, sums, sumsGo)

				yGo := append([]float64(nil), y...)
				axpyRowsGo(yGo, w, a)
				axpyRowsAVX(y, w, a)
				sameBits(t, "axpyRows y"+what, y, yGo)

				wGo, velGo := append([]float64(nil), w...), append([]float64(nil), vel...)
				momentumRowsGo(wGo, velGo, x, a, momentum)
				momentumRowsAVX(w, vel, x, a, momentum)
				sameBits(t, "momentumRows w"+what, w, wGo)
				sameBits(t, "momentumRows vel"+what, vel, velGo)
			}
		}
	}
}

// TestRowKernelsCheckShape holds both paths to refusing a matrix that is not
// rows × row length, which the AVX kernels would read past.
func TestRowKernelsCheckShape(t *testing.T) {
	short := map[string]func(){
		"dotRows":  func() { dotRows(make([]float64, 2), make([]float64, 5), make([]float64, 3)) },
		"axpyRows": func() { axpyRows(make([]float64, 3), make([]float64, 5), make([]float64, 2)) },
		"momentumRows w": func() {
			momentumRows(make([]float64, 5), make([]float64, 6), make([]float64, 3), make([]float64, 2), 0.5)
		},
		"momentumRows vel": func() {
			momentumRows(make([]float64, 6), make([]float64, 5), make([]float64, 3), make([]float64, 2), 0.5)
		},
	}
	for _, avx := range []bool{false, cpufeat.HasAVX()} {
		for name, call := range short {
			onPath(avx, func() {
				defer func() {
					if recover() == nil {
						t.Errorf("avx=%v: %s accepted a short matrix", avx, name)
					}
				}()
				call()
			})
		}
	}
}

// TestAccuracyRejectsWrongLengthExample holds both paths to refusing an
// example whose X is not In values long, one short or one long, rather than
// reading a prefix of each weight row.
func TestAccuracyRejectsWrongLengthExample(t *testing.T) {
	m := NewModel(13, 5, 10, Init{Kind: InitGaussian, A: 0.5}, 3)
	for _, avx := range []bool{false, cpufeat.HasAVX()} {
		for _, in := range []int{m.In - 1, m.In + 1} {
			onPath(avx, func() {
				defer func() {
					if recover() == nil {
						t.Errorf("avx=%v: Accuracy accepted an example of %d values, In = %d", avx, in, m.In)
					}
				}()
				m.Accuracy([]Example{{X: make([]float64, in)}})
			})
		}
	}
}

func parameters(m *Model) [][]float64 {
	return [][]float64{m.W1, m.B1, m.W2, m.B2, m.vW1, m.vB1, m.vW2, m.vB2}
}

// TestTrainEpochMatchesGoKernels trains two copies of a model, one on each
// kernel path, over the 13 × 5 shape (a tail in every W1 row) and the
// Defaults() one, and compares the loss and every parameter bit for bit.
// The second epoch's examples hold an infinity and a NaN, which reach every
// weight, so non-finite values go through the kernels too.
func TestTrainEpochMatchesGoKernels(t *testing.T) {
	needAVX(t)
	for _, shape := range []struct{ in, hidden int }{{13, 5}, {48, 24}} {
		examples := GenerateExamples(120, shape.in, 10, 0.8, 11)
		special := GenerateExamples(120, shape.in, 10, 0.8, 12)
		special[7].X[3], special[50].X[0] = math.Inf(1), math.NaN()
		avx := NewModel(shape.in, shape.hidden, 10, Init{Kind: InitGaussian, A: 0.5}, 3)
		scalar := avx.Clone()
		for epoch, set := range [][]Example{examples, special} {
			var lossAVX, lossGo float64
			onPath(true, func() { lossAVX = avx.TrainEpoch(set, 0.01, 0.9) })
			onPath(false, func() { lossGo = scalar.TrainEpoch(set, 0.01, 0.9) })
			what := fmt.Sprintf("%d×%d epoch %d", shape.in, shape.hidden, epoch)
			sameBits(t, what+" loss", []float64{lossAVX}, []float64{lossGo})
			for i, ws := range parameters(avx) {
				sameBits(t, what+" parameters", ws, parameters(scalar)[i])
			}
		}
		if !slices.ContainsFunc(avx.W1, math.IsNaN) {
			t.Errorf("%d×%d: no weight became NaN", shape.in, shape.hidden)
		}
	}
}

// TestForwardMatchesScalarGoKernels holds the plain-Go forward pass to the
// per-neuron one too.
func TestForwardMatchesScalarGoKernels(t *testing.T) {
	onPath(false, func() { TestForwardMatchesScalar(t) })
}

// TestTrainingChecksumGoKernels pins the plain-Go path to the same
// checksums as the AVX one.
func TestTrainingChecksumGoKernels(t *testing.T) {
	onPath(false, func() { TestTrainingChecksum(t) })
}

// BenchmarkRowKernels times each row kernel on both paths at the
// Defaults() layer shapes: 24 rows of 48 (W1) and 10 rows of 24 (W2). The
// /avx and /go readings side by side are what the assembly buys per layer.
func BenchmarkRowKernels(b *testing.B) {
	p := Defaults()
	for _, shape := range []struct{ rows, n int }{{p.Hidden, p.Dims}, {p.Classes, p.Hidden}} {
		rng := stats.NewRNG(1)
		fill := func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Normal(0, 0.1)
			}
			return xs
		}
		w, vel := fill(shape.rows*shape.n), fill(shape.rows*shape.n)
		x, y := fill(shape.n), fill(shape.n)
		sums, a := fill(shape.rows), fill(shape.rows)
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"dotRows", func() { dotRows(sums, w, x) }},
			{"axpyRows", func() { axpyRows(y, w, a) }},
			{"momentumRows", func() { momentumRows(w, vel, x, a, 0.9) }},
		} {
			for _, path := range []struct {
				name string
				avx  bool
			}{{"avx", true}, {"go", false}} {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", k.name, shape.rows, shape.n, path.name), func(b *testing.B) {
					if path.avx && !cpufeat.HasAVX() {
						b.Skip("the CPU or the OS does not support AVX")
					}
					onPath(path.avx, func() {
						for i := 0; i < b.N; i++ {
							k.run()
						}
					})
				})
			}
		}
	}
}
