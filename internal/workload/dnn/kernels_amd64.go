package dnn

import "metadataflow/internal/cpufeat"

// useAVX is whether the row kernels run as 4-wide AVX, decided once by
// cpufeat.HasAVX. Only tests change it, to run the plain-Go path on the
// same machine.
var useAVX = cpufeat.HasAVX()

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
