//go:build !amd64

package synthetic

func (m affineMap) sum(vals []uint32) uint64 { return m.sumGo(vals) }
