package vecmath

import "math"

// hasAVX reports whether the AVX kernels may run, from CPUID and XGETBV:
// the CPU has AVX and the OS saves its register state.
func hasAVX() bool {
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

// tanhRowAVX and expRowAVX compute what tanhRowGo and expRowGo do, four
// values per instruction, with math.Exp's FMA sequence if fused is set and
// its plain one otherwise. Each returns how many leading values it wrote:
// len(src); or, at the first block of four holding a value it leaves to
// math, the index of that block (of its last 1 to 3 values, if it is the
// last block, which overlaps the one before), of which it writes nothing;
// or 0 for a row shorter than 4, which it leaves to math too.

//go:noescape
func tanhRowAVX(dst, src []float64, fused bool) (done int)

//go:noescape
func expRowAVX(dst, src []float64, fused bool) (done int)

// The AVX kernels compute what dotRowsGo, axpyRowsGo, momentumRowsGo,
// dotColsGo and momentumColsGo do, four values per instruction with a
// scalar tail (rows_amd64.s).

//go:noescape
func dotRowsAVX(y, w, x []float64)

//go:noescape
func axpyRowsAVX(y, w, a []float64)

//go:noescape
func momentumRowsAVX(w, vel, x, lrg []float64, momentum float64)

//go:noescape
func dotColsAVX(y, w, x []float64)

//go:noescape
func momentumColsAVX(w, vel, x, lrg []float64, momentum float64)

// uRowAVX computes what uRowGo does, four values per instruction
// (cosine_amd64.s).
//
//go:noescape
func uRowAVX(u, samples []float64, x, h float64)

// cosineRowAVX computes what cosineRowGo does, four values per
// instruction, for every u with |π/2·u| < reduceThreshold, and reports
// whether there was another u, whose c it leaves to the caller.
//
//go:noescape
func cosineRowAVX(c, u []float64) (special bool)

// affineSumAVX returns the sum of (v·a + b) mod AffineMod over vals, whose
// length is a multiple of 4 and at most sumChunk, four values per
// instruction, a16 being a·2^16 mod AffineMod. It equals affineSumGo's sum
// for every uint32 v (see affine_amd64.s).
//
//go:noescape
func affineSumAVX(vals []uint32, a, a16, b float64) uint64

// The constants of exp_amd64.s, as Go rounds them.
const (
	log2e = 1.4426950408889634073599246810018920
	ln2U  = 0.69314718055966295651160180568695068359375
	ln2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor is exp_amd64.s's Taylor chain, 1/8! first.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
	0.5, 1.0,
}

// expPlain and expFused are exp_amd64.s's two sequences for an x whose e^x
// is a normal float64, written out in Go: k = x·log2(e) rounded to the
// nearest integer, ties to even (CVTSD2SL under Go's MXCSR); r = (x −
// k·LN2U − k·LN2L)/16; r·(the Taylor chain in r); four times r·(r + 2);
// plus 1; times 2^k. expPlain rounds every product before it is added (the
// float64 conversions keep the compiler from fusing them); expFused fuses
// where the avxfma branch does: both reduction steps, the Taylor chain, and
// the last square with its +1.
func expPlain(x float64) float64 {
	k := math.RoundToEven(x * log2e)
	r := x - float64(k*ln2U)
	r -= float64(k * ln2L)
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = float64(p*r) + c
	}
	r *= p
	for range 4 {
		r *= r + 2
	}
	return (r + 1) * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

func expFused(x float64) float64 {
	k := math.RoundToEven(x * log2e)
	r := math.FMA(-k, ln2U, x)
	r = math.FMA(-k, ln2L, r)
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(p, r, c)
	}
	r *= p
	for range 3 {
		r *= r + 2
	}
	r = math.FMA(r, r+2, 1)
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// probeExp returns the sequence math.Exp runs, "fma" or "plain", if exactly
// one transliteration matches it bit for bit at every probe argument, and
// "" otherwise.
func probeExp() string {
	fma, plain := true, true
	for i := range probeArgs {
		x := probeArg(i)
		want := math.Float64bits(math.Exp(x))
		fma = fma && math.Float64bits(expFused(x)) == want
		plain = plain && math.Float64bits(expPlain(x)) == want
	}
	switch {
	case fma && !plain:
		return "fma"
	case plain && !fma:
		return "plain"
	}
	return ""
}

// probeArgs is how many arguments probeExp tries. probeArg(i) spreads them
// over [−700, 700], where e^x is normal, and over [−20, 20], where
// dnn's softmax and tanh take theirs: the two sequences differ at about
// one argument in ten.
const probeArgs = 512

func probeArg(i int) float64 {
	f := math.Mod(float64(i)*0.6180339887498949, 1)
	if i%2 == 0 {
		return 1400*f - 700
	}
	return 40*f - 20
}
