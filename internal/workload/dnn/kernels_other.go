//go:build !amd64

package dnn

func dotRows(y, w, x []float64) { dotRowsGo(y, w, x) }

func axpyRows(y, w, a []float64) { axpyRowsGo(y, w, a) }

func momentumRows(w, vel, x, lrg []float64, momentum float64) {
	momentumRowsGo(w, vel, x, lrg, momentum)
}
