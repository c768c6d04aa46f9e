package vecmath

import "math"

// URow and CosineRow are kde's density pass, per point x and block of
// samples: the scaled differences u = (x−xᵢ)/h of the samples, and the
// cosine kernel over the u inside its support. Each evaluates the
// expression kde's Kernel.Fn does, with the same operands in the same
// order.

// URow sets u[i] = (x − samples[i])/h for every i. u and samples must be
// as long.
func URow(u, samples []float64, x, h float64) {
	checkShape("URow", len(u), 1, len(samples))
	if useAVX {
		uRowAVX(u, samples, x, h)
	} else {
		uRowGo(u, samples, x, h)
	}
}

// CosineRow sets c[i] = CosineTerm(u[i]) for every i. c and u must be as
// long, and must not overlap.
func CosineRow(c, u []float64) {
	checkShape("CosineRow", len(c), 1, len(u))
	if !useAVX {
		cosineRowGo(c, u)
		return
	}
	if cosineRowAVX(c, u) {
		// Some π/2·u is not finite or too large for the octant reduction
		// the kernel repeats: math.Cos takes those values.
		for i, v := range u {
			if !(math.Abs(math.Pi/2*v) < reduceThreshold) {
				c[i] = CosineTerm(v)
			}
		}
	}
}

// CosineTerm is the cosine kernel at u inside its support [−1, 1],
// π/4·cos(π/2·u).
func CosineTerm(u float64) float64 { return math.Pi / 4 * math.Cos(math.Pi/2*u) }

// reduceThreshold is math's bound of the arguments that math.Cos reduces
// by π/4 in three parts, the reduction cosineRowAVX repeats; larger ones it
// reduces another way.
const reduceThreshold = 1 << 29

// uRowGo and cosineRowGo are URow's and CosineRow's plain-Go path and
// reference.

func uRowGo(u, samples []float64, x, h float64) {
	for i, xi := range samples {
		u[i] = (x - xi) / h
	}
}

func cosineRowGo(c, u []float64) {
	for i, v := range u {
		c[i] = CosineTerm(v)
	}
}
