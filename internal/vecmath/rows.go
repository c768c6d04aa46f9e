package vecmath

// DotRows, AxpyRows and MomentumRows are row-block kernels over a matrix w
// held row-major: dnn runs each layer through them, once per layer per
// example, the forward pass through DotRows and the backward pass through
// the other two. Each does every floating-point operation of the
// per-neuron loops it replaced, in the same order and with the same
// operand order; the AVX path adds no FMA, so each product is rounded
// before it is added, as the Go code's is.

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
