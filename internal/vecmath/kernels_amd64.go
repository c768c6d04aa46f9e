package vecmath

import (
	"math"

	"metadataflow/internal/cpufeat"
)

// expPath is the sequence math.Exp runs in this process, "fma", "plain" or
// "" for neither, as probeExp found it at start-up. useAVX is whether the
// row kernels run as 4-wide AVX: the CPU has AVX and math.Exp runs one of
// the two sequences. Only tests change useAVX, to run the plain-Go path on
// the same machine.
var (
	expPath = probeExp()
	fused   = expPath == "fma"
	useAVX  = cpufeat.HasAVX() && expPath != ""
)

// ExpPath names the sequence of exp_amd64.s that math.Exp runs in this
// process: "fma" (its avxfma branch), "plain", or "" if it matches neither
// transliteration. Results that go through math.Exp differ in the last bit
// between the two, so a test that pins them pins each path's own.
func ExpPath() string { return expPath }

// TanhRow sets dst[i] = math.Tanh(src[i]) for every i. dst and src must be
// as long, and may be the same slice.
func TanhRow(dst, src []float64) {
	checkLens("TanhRow", len(dst), len(src))
	if !useAVX {
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
	checkLens("ExpRow", len(dst), len(src))
	if !useAVX {
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
