//go:build !amd64

package vecmath

// TanhRow sets dst[i] = math.Tanh(src[i]) for every i. dst and src must be
// as long, and may be the same slice.
func TanhRow(dst, src []float64) {
	checkLens("TanhRow", len(dst), len(src))
	tanhRowGo(dst, src)
}

// ExpRow sets dst[i] = math.Exp(src[i]) for every i. dst and src must be
// as long, and may be the same slice.
func ExpRow(dst, src []float64) {
	checkLens("ExpRow", len(dst), len(src))
	expRowGo(dst, src)
}

// ExpPath is "" off amd64: math.Exp runs neither of exp_amd64.s's
// sequences.
func ExpPath() string { return "" }
