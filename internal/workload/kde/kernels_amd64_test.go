package kde

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"metadataflow/internal/cpufeat"
)

// onPath runs f with the row kernels on the AVX path or on the plain-Go
// one, and then restores the choice.
func onPath(avx bool, f func()) {
	saved := useAVX
	useAVX = avx
	defer func() { useAVX = saved }()
	f()
}

// testPaths lists the row-kernel paths this machine runs: the plain-Go one,
// and the AVX one where the CPU has it.
func testPaths() []bool {
	if cpufeat.HasAVX() {
		return []bool{false, true}
	}
	return []bool{false}
}

func needAVX(t *testing.T) {
	t.Helper()
	if !cpufeat.HasAVX() {
		t.Skip("the CPU or the OS does not support AVX")
	}
}

// kernelValues are the operands the kernels see: ordinary values, the
// support's ends and the values beside them, and every kind of IEEE 754
// edge, NaNs of three payloads and both signs among them, so that a result
// differing in one bit, a NaN's included, shows.
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

func sameRowBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%016x), Go kernel %v (%016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// kernelLengths are the row lengths the kernels are held to: every length
// around the 4-wide block (the masked tail takes 1 to 3 values), and a
// Defaults() fit's 400 samples.
var kernelLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 400}

// TestRowKernelsMatchGo holds the AVX kernels to the Go ones bit for bit:
// uRow at every x and h of the special values, cosineRow over values inside
// the support and over special ones, for every length in kernelLengths. The
// AVX kernels write no value past the row's end.
func TestRowKernelsMatchGo(t *testing.T) {
	needAVX(t)
	rng := rand.New(rand.NewSource(23))
	const guard = 12345.0
	for _, n := range kernelLengths {
		for trial := 0; trial < 8; trial++ {
			samples := fillKernelValues(rng, make([]float64, n), 4)
			x := kernelValues[trial*5%len(kernelValues)]
			if trial%2 == 0 {
				x = rng.NormFloat64()
			}
			for _, h := range []float64{0.2, 1e-300, 3, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64} {
				want := make([]float64, n)
				uRowGo(want, samples, x, h)
				got := make([]float64, n+1)
				got[n] = guard
				onPath(true, func() { uRow(got[:n], samples, x, h) })
				sameRowBits(t, fmt.Sprintf("uRow(n=%d, x=%v, h=%v)", n, x, h), got, want)
				if got[n] != guard {
					t.Fatalf("uRow(n=%d) wrote past the row's end", n)
				}
			}
			for _, scale := range []float64{1, 1e9} {
				u := fillKernelValues(rng, make([]float64, n), scale)
				want := make([]float64, n)
				cosineRowGo(want, u)
				got := make([]float64, n+1)
				got[n] = guard
				onPath(true, func() { cosineRow(got[:n], u) })
				sameRowBits(t, fmt.Sprintf("cosineRow(n=%d, scale %g)", n, scale), got, want)
				if got[n] != guard {
					t.Fatalf("cosineRow(n=%d) wrote past the row's end", n)
				}
			}
		}
	}
}

// TestCosineRowMatchesMathCos sweeps the cosine kernel over the whole
// support, in 2⁻¹⁸ steps and at the values beside the octant boundary of
// math.cos's reduction (π/2·u = π/4) and inside the support's ends, on both
// paths against cosine.
func TestCosineRowMatchesMathCos(t *testing.T) {
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
	for _, avx := range []bool{false, cpufeat.HasAVX()} {
		c := make([]float64, len(u))
		onPath(avx, func() { cosineRow(c, u) })
		for i, v := range u {
			if want := cosine(v); math.Float64bits(c[i]) != math.Float64bits(want) {
				t.Fatalf("avx=%v: cosineRow at %v = %v, cosine %v", avx, v, c[i], want)
			}
		}
	}
}

// BenchmarkRowKernels times each kernel at a Defaults() fit's 400 samples on
// the /avx and the /go path: uRow over normal draws, cosineRow over the
// values inside the support of h 0.2.
func BenchmarkRowKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, Defaults().FitSample)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	u := make([]float64, len(samples))
	uRowGo(u, samples, 0.1, 0.2)
	var in []float64
	for _, v := range u {
		if !outside(v) {
			in = append(in, v)
		}
	}
	c := make([]float64, len(in))
	for _, path := range []struct {
		name string
		avx  bool
	}{{"avx", true}, {"go", false}} {
		if path.avx && !cpufeat.HasAVX() {
			continue
		}
		b.Run("uRow/"+path.name, func(b *testing.B) {
			onPath(path.avx, func() {
				for i := 0; i < b.N; i++ {
					uRow(u, samples, 0.1, 0.2)
				}
			})
		})
		b.Run("cosineRow/"+path.name, func(b *testing.B) {
			onPath(path.avx, func() {
				for i := 0; i < b.N; i++ {
					cosineRow(c, in)
				}
			})
		})
	}
}
