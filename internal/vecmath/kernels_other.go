//go:build !amd64

package vecmath

// Off amd64 there is no AVX: the switch is off, math.Exp runs neither of
// exp_amd64.s's sequences, and the AVX kernels are never called.

func hasAVX() bool { return false }

func probeExp() string { return "" }

func tanhRowAVX(dst, src []float64, fused bool) int { panic("vecmath: no AVX") }

func expRowAVX(dst, src []float64, fused bool) int { panic("vecmath: no AVX") }

func dotRowsAVX(y, w, x []float64) { panic("vecmath: no AVX") }

func axpyRowsAVX(y, w, a []float64) { panic("vecmath: no AVX") }

func momentumRowsAVX(w, vel, x, lrg []float64, momentum float64) { panic("vecmath: no AVX") }

func dotColsAVX(y, w, x []float64) { panic("vecmath: no AVX") }

func momentumColsAVX(w, vel, x, lrg []float64, momentum float64) { panic("vecmath: no AVX") }

func uRowAVX(u, samples []float64, x, h float64) { panic("vecmath: no AVX") }

func cosineRowAVX(c, u []float64) bool { panic("vecmath: no AVX") }

func affineSumAVX(vals []uint32, a, a16, b float64) uint64 { panic("vecmath: no AVX") }
