package dnn

// The backward pass updates whole layers through two row-block kernels,
// called once per layer per example. w holds len(a) (or len(lrg)) rows of
// len(y) (or len(x)) values, row-major, as Model's weight matrices do.
// axpyRowsGo and momentumRowsGo are the plain-Go forms: the only path off
// amd64 and on amd64 without AVX, and the reference the AVX kernels are
// tested against bit for bit. Both do every floating-point operation of the
// per-neuron loops they replaced, in the same order and with the same
// operand order.

// axpyRowsGo adds a[r]·w[r] to y for every row r, in ascending r.
func axpyRowsGo(y, w, a []float64) {
	checkRows("axpyRows", len(w), len(a), len(y))
	n := len(y)
	for r, ar := range a {
		row := w[r*n : (r+1)*n][:len(y)]
		for i, wi := range row {
			y[i] += ar * wi
		}
	}
}

// momentumRowsGo takes one momentum step on every value of every row r of w:
// v = momentum·vel − lrg[r]·x[i]; vel = v; w += v.
func momentumRowsGo(w, vel, x, lrg []float64, momentum float64) {
	checkRows("momentumRows", len(w), len(lrg), len(x))
	checkRows("momentumRows", len(vel), len(lrg), len(x))
	n := len(x)
	for r, g := range lrg {
		row := w[r*n : (r+1)*n][:len(x)]
		v := vel[r*n : (r+1)*n][:len(x)]
		for i, xi := range x {
			vi := momentum*v[i] - g*xi
			v[i] = vi
			row[i] += vi
		}
	}
}

// checkRows panics unless a matrix of size values is rows rows of n values:
// only a bug in the caller makes it so, and the AVX kernels index it
// without bounds checks.
func checkRows(kernel string, size, rows, n int) {
	if size != rows*n {
		panic("dnn: " + kernel + ": matrix is not rows × row length")
	}
}
