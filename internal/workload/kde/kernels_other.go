//go:build !amd64

package kde

func uRow(u, samples []float64, x, h float64) { uRowGo(u, samples, x, h) }

func cosineRow(c, u []float64) { cosineRowGo(c, u) }
