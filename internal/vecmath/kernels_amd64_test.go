package vecmath

import (
	"math"
	"testing"
)

// TestExpTransliterationMatchesMath holds the transliteration of the
// sequence the probe found to math.Exp, bit for bit, over the 2^-18 sweep
// of [−50, 50] and over every 2^-10 of the range in which e^x is normal. On
// amd64 math.Exp runs one of the two: a probe that finds neither is a
// failure here. CI runs this package again under GODEBUG=cpu.fma=off, so
// both transliterations are held to it on a machine with FMA.
func TestExpTransliterationMatchesMath(t *testing.T) {
	translit := map[string]func(float64) float64{"fma": expFused, "plain": expPlain}[ExpPath()]
	if translit == nil {
		t.Fatal("math.Exp matches neither transliteration of exp_amd64.s")
	}
	check := func(x float64) {
		if got, want := translit(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s path: exp(%v) = %v (%016x), math.Exp %v (%016x)", ExpPath(), x,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	sweepRows(func(row []float64) {
		for _, x := range row {
			check(x)
		}
	})
	for i := -708 << 10; i <= 709<<10; i++ {
		check(float64(i) / (1 << 10))
	}
}

// TestProbeArgsSeparatePaths requires the two transliterations to differ at
// some of the probe's arguments, so that the probe can tell them apart:
// matching both would leave TanhRow and ExpRow off.
func TestProbeArgsSeparatePaths(t *testing.T) {
	differ := 0
	for i := range probeArgs {
		x := probeArg(i)
		if math.Float64bits(expFused(x)) != math.Float64bits(expPlain(x)) {
			differ++
		}
	}
	if differ < probeArgs/50 {
		t.Errorf("the transliterations differ at %d of %d probe arguments", differ, probeArgs)
	}
	t.Logf("the transliterations differ at %d of %d probe arguments; this process's math.Exp runs %q", differ, probeArgs, ExpPath())
}
