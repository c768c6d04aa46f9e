// Package vecmath evaluates math.Tanh and math.Exp over rows of values, bit
// for bit what math returns for each value, four values per instruction
// with AVX on amd64.
//
// math.Exp on amd64 is exp_amd64.s, which runs one of two straight-line
// sequences per value: with FMA when the CPU has AVX and FMA
// (math.useFMA), each product rounded before it is added otherwise. GODEBUG
// can turn FMA off for math (cpu.fma=off), so the kernels do not read the
// CPU for it: at start-up they probe math.Exp against a Go transliteration
// of each sequence and repeat the one it matches. If it matches neither, or
// the CPU has no AVX (internal/cpufeat), the kernels stay off, and off
// amd64 they do not exist: the plain-Go loops over math.Tanh and math.Exp
// are then the only path.
package vecmath

import "math"

// tanhRowGo and expRowGo are the rows as math computes them: the only path
// off amd64 and without AVX, and the reference the AVX kernels are tested
// against. On amd64 they also take the values the kernels leave to math.

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

// checkLens panics unless a row's output and input are as long: only a bug
// in the caller makes them differ, and the AVX kernels index them without
// bounds checks.
func checkLens(kernel string, out, in int) {
	if out != in {
		panic("vecmath: " + kernel + ": output and input lengths differ")
	}
}
