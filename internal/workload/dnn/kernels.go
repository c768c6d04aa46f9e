package dnn

// Training and Accuracy run each layer through row-block kernels, called
// once per layer per example: the forward pass through dotRows, the
// backward pass through axpyRows and momentumRows. w is a layer's weight
// matrix, row-major as Model holds it: dotRows' has len(y) rows of len(x)
// values, axpyRows' len(a) rows of len(y), momentumRows' len(lrg) rows of
// len(x). dotRowsGo, axpyRowsGo and momentumRowsGo are the
// plain-Go forms: the only path off amd64 and on amd64 without AVX, and the
// reference the AVX kernels are tested against bit for bit. Each does every
// floating-point operation of the per-neuron loops it replaced, in the same
// order and with the same operand order.

// dotRowsGo adds the dot product of row r of w with x to y[r], for every r:
// y[r] += w[r·n+i]·x[i] for i ascending, n = len(x), each product added to
// the running sum as it comes.
//
// Four rows share one pass over x. A row's sum is one chain of dependent
// additions, each waiting for the one before it; four chains in flight
// overlap those waits. Every sum still adds the same products in the same
// order.
//
// go:norace keeps the race detector's calls out of the loops: they spill
// the sums, and the compiler, free to swap the operands of a commutative
// + or ×, then swaps some of them, so the first source, and with it a
// NaN's payload, would differ from the build without -race. The AVX kernels
// are not instrumented either.
//
//go:norace
func dotRowsGo(y, w, x []float64) {
	checkRows("dotRows", len(w), len(y), len(x))
	n := len(x)
	r := 0
	for ; r+4 <= len(y); r += 4 {
		s0, s1, s2, s3 := y[r], y[r+1], y[r+2], y[r+3]
		r0 := w[r*n : (r+1)*n][:len(x)]
		r1 := w[(r+1)*n : (r+2)*n][:len(x)]
		r2 := w[(r+2)*n : (r+3)*n][:len(x)]
		r3 := w[(r+3)*n : (r+4)*n][:len(x)]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		y[r], y[r+1], y[r+2], y[r+3] = s0, s1, s2, s3
	}
	for ; r < len(y); r++ {
		sum := y[r]
		row := w[r*n : (r+1)*n][:len(x)]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[r] = sum
	}
}

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
