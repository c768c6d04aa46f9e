package cpufeat

// HasAVX reports whether the AVX kernels may run, from CPUID and XGETBV:
// the CPU has AVX and the OS saves its register state.
func HasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the SSE and the upper AVX halves.
	return xcr0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1, the feature bits.
func cpuid1ECX() uint32

// xcr0 returns the low half of XCR0 (XGETBV with ECX = 0), the register
// state the OS saves.
func xcr0() uint32
