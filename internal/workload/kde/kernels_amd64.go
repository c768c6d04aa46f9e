package kde

import (
	"math"

	"metadataflow/internal/cpufeat"
)

// useAVX is whether the row kernels run as 4-wide AVX, decided once by
// cpufeat.HasAVX. Only tests change it, to run the plain-Go path on the
// same machine.
var useAVX = cpufeat.HasAVX()

func uRow(u, samples []float64, x, h float64) {
	if !useAVX {
		uRowGo(u, samples, x, h)
		return
	}
	checkLens("uRow", len(u), len(samples))
	uRowAVX(u, samples, x, h)
}

func cosineRow(c, u []float64) {
	if !useAVX {
		cosineRowGo(c, u)
		return
	}
	checkLens("cosineRow", len(c), len(u))
	if cosineRowAVX(c, u) {
		// Some π/2·u is not finite or too large for the octant reduction
		// the kernel repeats: math.Cos takes those values.
		for i, v := range u {
			if !(math.Abs(math.Pi/2*v) < reduceThreshold) {
				c[i] = cosineTerm(v)
			}
		}
	}
}

// reduceThreshold is math's bound of the arguments that math.Cos reduces
// by π/4 in three parts, the reduction cosineRowAVX repeats; larger ones it
// reduces another way.
const reduceThreshold = 1 << 29

// uRowAVX computes what uRowGo does, four values per instruction.
//
//go:noescape
func uRowAVX(u, samples []float64, x, h float64)

// cosineRowAVX computes what cosineRowGo does, four values per
// instruction, for every u with |π/2·u| < reduceThreshold, and reports
// whether there was another u, whose c it leaves to the caller.
//
//go:noescape
func cosineRowAVX(c, u []float64) (special bool)
