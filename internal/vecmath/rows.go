package vecmath

// DotRows, AxpyRows and MomentumRows are row-block kernels over a matrix w
// held row-major: dnn runs each layer through them, once per layer per
// example, the forward pass through DotRows and the backward pass through
// the other two. DotCols and MomentumCols are DotRows and MomentumRows over
// the transpose of w, held column-major: dnn's first layer, whose rows are
// long and few, runs through them. Each does every floating-point
// operation of the per-neuron loops it replaced, in the same order and
// with the same operand order; the AVX path adds no FMA, so each product
// is rounded before it is added, as the Go code's is.

// DotRows adds the dot product of row r of w with x to y[r], for every r:
// y[r] += w[r·n+i]·x[i] for i ascending, n = len(x), each product added to
// the running sum as it comes. w holds len(y) rows of len(x) values.
func DotRows(y, w, x []float64) {
	checkShape("DotRows", len(w), len(y), len(x))
	if useAVX {
		dotRowsAVX(y, w, x)
	} else {
		dotRowsGo(y, w, x)
	}
}

// DotCols is DotRows over the transpose of w: it adds the dot product of
// column c of w with x to y[c], for every c: y[c] += w[i·m+c]·x[i] for i
// ascending, m = len(y), each product added to the running sum as it
// comes. w holds len(x) rows of len(y) values. Its results are DotRows'
// over the row-major w, bit for bit.
func DotCols(y, w, x []float64) {
	checkShape("DotCols", len(w), len(x), len(y))
	if useAVX {
		dotColsAVX(y, w, x)
	} else {
		dotColsGo(y, w, x)
	}
}

// AxpyRows adds a[r]·w[r] to y for every row r, in ascending r. w holds
// len(a) rows of len(y) values.
func AxpyRows(y, w, a []float64) {
	checkShape("AxpyRows", len(w), len(a), len(y))
	if useAVX {
		axpyRowsAVX(y, w, a)
	} else {
		axpyRowsGo(y, w, a)
	}
}

// MomentumRows takes one momentum step on every value of every row r of w:
// v = momentum·vel − lrg[r]·x[i]; vel = v; w += v. w and vel each hold
// len(lrg) rows of len(x) values.
func MomentumRows(w, vel, x, lrg []float64, momentum float64) {
	checkShape("MomentumRows", len(w), len(lrg), len(x))
	checkShape("MomentumRows", len(vel), len(lrg), len(x))
	if useAVX {
		momentumRowsAVX(w, vel, x, lrg, momentum)
	} else {
		momentumRowsGo(w, vel, x, lrg, momentum)
	}
}

// MomentumCols is MomentumRows over the transpose of w and vel: it takes
// one momentum step on the value of every row i and column c of w:
// v = momentum·vel − lrg[c]·x[i]; vel = v; w += v. w and vel each hold
// len(x) rows of len(lrg) values. Its results are MomentumRows' over the
// row-major w and vel, bit for bit.
func MomentumCols(w, vel, x, lrg []float64, momentum float64) {
	checkShape("MomentumCols", len(w), len(x), len(lrg))
	checkShape("MomentumCols", len(vel), len(x), len(lrg))
	if useAVX {
		momentumColsAVX(w, vel, x, lrg, momentum)
	} else {
		momentumColsGo(w, vel, x, lrg, momentum)
	}
}

// dotRowsGo is DotRows' plain-Go path and reference.
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

// axpyRowsGo is AxpyRows' plain-Go path and reference.
func axpyRowsGo(y, w, a []float64) {
	n := len(y)
	for r, ar := range a {
		row := w[r*n : (r+1)*n][:len(y)]
		for i, wi := range row {
			y[i] += ar * wi
		}
	}
}

// momentumRowsGo is MomentumRows' plain-Go path and reference.
func momentumRowsGo(w, vel, x, lrg []float64, momentum float64) {
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

// dotColsGo is DotCols' plain-Go path and reference: dotRowsGo's loop,
// four sums in flight, reading each sum's value of a row of w. The tail
// reads x[i] inside its loop, so that the compiler folds that load into
// the product and w stays its first operand, as in dotRowsGo. go:norace
// for dotRowsGo's reason.
//
//go:norace
func dotColsGo(y, w, x []float64) {
	m := len(y)
	c := 0
	for ; c+4 <= m; c += 4 {
		s0, s1, s2, s3 := y[c], y[c+1], y[c+2], y[c+3]
		for i, xi := range x {
			col := w[i*m+c : i*m+c+4]
			s0 += col[0] * xi
			s1 += col[1] * xi
			s2 += col[2] * xi
			s3 += col[3] * xi
		}
		y[c], y[c+1], y[c+2], y[c+3] = s0, s1, s2, s3
	}
	for ; c < m; c++ {
		sum := y[c]
		for i := range x {
			sum += w[i*m+c] * x[i]
		}
		y[c] = sum
	}
}

// momentumColsGo is MomentumCols' plain-Go path and reference. x[i] is
// read in the inner loop and written first in its product so that, as in
// momentumRowsGo, the compiler makes x the product's first operand, a NaN's
// payload included; go:norace for dotRowsGo's reason.
//
//go:norace
func momentumColsGo(w, vel, x, lrg []float64, momentum float64) {
	m := len(lrg)
	for i := range x {
		row := w[i*m : (i+1)*m][:len(lrg)]
		v := vel[i*m : (i+1)*m][:len(lrg)]
		for c, g := range lrg {
			vi := momentum*v[c] - x[i]*g
			v[c] = vi
			row[c] += vi
		}
	}
}
