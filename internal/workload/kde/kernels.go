package kde

import "math"

// The density pass (densityPass) runs two row kernels per point x and block
// of samples: uRow, the scaled differences u = (x-xᵢ)/h of the samples, and
// cosineRow, the cosine kernel over the u inside the support. uRowGo and
// cosineRowGo are their plain-Go forms: the only path off amd64 and on amd64
// without AVX, and the reference the AVX kernels are tested against bit for
// bit. Each evaluates the expression Kernel.Fn's sum does, with the same
// operands in the same order.

// uRowGo sets u[i] = (x - samples[i]) / h.
func uRowGo(u, samples []float64, x, h float64) {
	checkLens("uRow", len(u), len(samples))
	for i, xi := range samples {
		u[i] = (x - xi) / h
	}
}

// cosineRowGo sets c[i] = π/4·cos(π/2·u[i]), the cosine kernel inside its
// support.
func cosineRowGo(c, u []float64) {
	checkLens("cosineRow", len(c), len(u))
	for i, v := range u {
		c[i] = cosineTerm(v)
	}
}

// cosineTerm is the cosine kernel at u inside its support, as cosine
// computes it.
func cosineTerm(u float64) float64 { return math.Pi / 4 * math.Cos(math.Pi/2*u) }

// checkLens panics unless a kernel's output and input are as long: only a
// bug in the caller makes them differ, and the AVX kernels index them
// without bounds checks.
func checkLens(kernel string, out, in int) {
	if out != in {
		panic("kde: " + kernel + ": output and input lengths differ")
	}
}
