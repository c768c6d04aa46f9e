package synthetic

import "metadataflow/internal/cpufeat"

// useAVX is whether the scored pass sums as 4-wide AVX, decided once by
// cpufeat.HasAVX. Only tests change it, to run the plain-Go path on the
// same machine.
var useAVX = cpufeat.HasAVX()

// sumChunk bounds the values of one affineSumAVX call: their sum is below
// 2^22·p < 2^52, so every partial sum its float64 lanes take is exact.
const sumChunk = 1 << 22

// sum returns what sumGo does, with AVX through affineSumAVX, at most
// sumChunk values per call, and the 0 to 3 values past a multiple of 4
// through sumGo.
func (m affineMap) sum(vals []uint32) uint64 {
	if !useAVX {
		return m.sumGo(vals)
	}
	var s uint64
	a, a16, b := float64(m.a), float64(m.a<<16%mod), float64(m.b)
	for len(vals) >= 4 {
		n := min(len(vals), sumChunk) &^ 3
		s += affineSumAVX(vals[:n], a, a16, b)
		vals = vals[n:]
	}
	return s + m.sumGo(vals)
}

// affineSumAVX returns the sum of (v·a + b) mod p over vals, whose length
// is a multiple of 4 and at most sumChunk, four values per instruction, a16
// being a·2^16 mod p. It equals sumGo's sum for every uint32 v (see
// kernels_amd64.s).
//
//go:noescape
func affineSumAVX(vals []uint32, a, a16, b float64) uint64
