package dnn

// useAVX is whether the row kernels run as 4-wide AVX, decided once from
// CPUID and XGETBV: the CPU has AVX and the OS saves its register state.
// Only tests change it, to run the plain-Go path on the same machine.
var useAVX = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the SSE and the upper AVX halves.
	return xcr0()&6 == 6
}

func dotRows(y, w, x []float64) {
	if !useAVX {
		dotRowsGo(y, w, x)
		return
	}
	checkRows("dotRows", len(w), len(y), len(x))
	dotRowsAVX(y, w, x)
}

func axpyRows(y, w, a []float64) {
	if !useAVX {
		axpyRowsGo(y, w, a)
		return
	}
	checkRows("axpyRows", len(w), len(a), len(y))
	axpyRowsAVX(y, w, a)
}

func momentumRows(w, vel, x, lrg []float64, momentum float64) {
	if !useAVX {
		momentumRowsGo(w, vel, x, lrg, momentum)
		return
	}
	checkRows("momentumRows", len(w), len(lrg), len(x))
	checkRows("momentumRows", len(vel), len(lrg), len(x))
	momentumRowsAVX(w, vel, x, lrg, momentum)
}

// The AVX kernels compute what dotRowsGo, axpyRowsGo and momentumRowsGo
// do, four values per instruction with a scalar tail, and no FMA: each
// product is rounded before it is added, as the Go code's is.

//go:noescape
func dotRowsAVX(y, w, x []float64)

//go:noescape
func axpyRowsAVX(y, w, a []float64)

//go:noescape
func momentumRowsAVX(w, vel, x, lrg []float64, momentum float64)

// cpuid1ECX returns ECX of CPUID leaf 1, the feature bits.
func cpuid1ECX() uint32

// xcr0 returns the low half of XCR0 (XGETBV with ECX = 0), the register
// state the OS saves.
func xcr0() uint32
