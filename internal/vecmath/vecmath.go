// Package vecmath holds every vector kernel of the workloads: rows of
// math.Tanh and math.Exp and the row-block products of a layer (dnn), the
// scaled differences and the cosine kernel of a density pass (kde), and the
// exact sum of an affine map modulo AffineMod (synthetic). Each returns bit
// for bit what its plain-Go reference in this package does, four values per
// instruction with AVX on amd64.
//
// One switch picks the path: useAVX, whether the CPU has AVX and the OS
// saves its registers (CPUID and XGETBV). Off amd64 it is false and the
// plain-Go references are the only path.
//
// TanhRow and ExpRow need more than AVX. math.Exp on amd64 is exp_amd64.s,
// which runs one of two straight-line sequences per value: with FMA when
// the CPU has AVX and FMA (math.useFMA), each product rounded before it is
// added otherwise. GODEBUG can turn FMA off for math (cpu.fma=off), so the
// two kernels do not read the CPU for it: at start-up they probe math.Exp
// against a Go transliteration of each sequence and repeat the one it
// matches. If it matches neither, those two stay on the plain-Go loops over
// math.Tanh and math.Exp; the other kernels do not go through math.Exp, and
// stay on AVX.
package vecmath

import "math"

// useAVX is whether the kernels run as 4-wide AVX. Only OnEachPath changes
// it, for tests.
var useAVX = hasAVX()

// expPath is the sequence math.Exp runs in this process, "fma", "plain" or
// "" for neither, as probeExp found it at start-up; fused is whether it is
// "fma". TanhRow and ExpRow run as AVX only where it is one of the two.
var (
	expPath = probeExp()
	fused   = expPath == "fma"
)

// ExpPath names the sequence of exp_amd64.s that math.Exp runs in this
// process: "fma" (its avxfma branch), "plain", or "" if it matches neither
// transliteration, as off amd64. Results that go through math.Exp differ in
// the last bit between the two, so a test that pins them pins each path's
// own.
func ExpPath() string { return expPath }

// OnEachPath is for tests: it runs f once on each kernel path this process
// has, the plain-Go one and then, where the CPU has AVX, the AVX one,
// telling f which, and then restores the choice. The path is every
// kernel's in the process, so no other test may run kernels meanwhile.
func OnEachPath(f func(avx bool)) {
	saved := useAVX
	defer func() { useAVX = saved }()
	for _, avx := range []bool{false, true} {
		if avx && !hasAVX() {
			break
		}
		useAVX = avx
		f(avx)
	}
}

// checkShape panics unless an operand of size values is rows rows of n
// values; with rows 1, unless an output is as long as its input. Only a
// bug in the caller makes it otherwise, and the AVX kernels index their
// operands without bounds checks.
func checkShape(kernel string, size, rows, n int) {
	if size != rows*n {
		panic("vecmath: " + kernel + ": operand lengths do not match")
	}
}

// TanhRow sets dst[i] = math.Tanh(src[i]) for every i. dst and src must be
// as long, and may be the same slice.
func TanhRow(dst, src []float64) {
	checkShape("TanhRow", len(dst), 1, len(src))
	if !useAVX || expPath == "" {
		tanhRowGo(dst, src)
		return
	}
	for i := 0; i < len(src); {
		i += tanhRowAVX(dst[i:], src[i:], fused)
		// The kernel stopped at a block holding a NaN, or the row left is
		// shorter than 4: math.Tanh takes up to four values, the kernel the
		// rest.
		j := min(i+4, len(src))
		tanhRowGo(dst[i:j], src[i:j])
		i = j
	}
}

// ExpRow sets dst[i] = math.Exp(src[i]) for every i. dst and src must be
// as long, and may be the same slice.
func ExpRow(dst, src []float64) {
	checkShape("ExpRow", len(dst), 1, len(src))
	if !useAVX || expPath == "" {
		expRowGo(dst, src)
		return
	}
	for i := 0; i < len(src); {
		i += expRowAVX(dst[i:], src[i:], fused)
		// The kernel stopped at a block holding an x that is not finite,
		// or whose e^x overflows or is subnormal or zero, or the row left
		// is shorter than 4: math.Exp takes up to four values, the kernel
		// the rest.
		j := min(i+4, len(src))
		expRowGo(dst[i:j], src[i:j])
		i = j
	}
}

// tanhRowGo and expRowGo are the rows as math computes them: the plain-Go
// path, and the reference the AVX kernels are tested against. On the AVX
// path they also take the values the kernels leave to math.

func tanhRowGo(dst, src []float64) {
	for i, x := range src {
		dst[i] = math.Tanh(x)
	}
}

func expRowGo(dst, src []float64) {
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}
