package vecmath

// AffineMod is the prime modulus of AffineSum, below 2^30: synthetic's
// algebraic operation works modulo it.
const AffineMod = 1_000_000_007

// AffineSum returns the sum of (v·a + b) mod AffineMod over vals, a and b
// below AffineMod: exact, since each term is below 2^30. On the AVX path
// affineSumAVX takes at most sumChunk values per call, and the 0 to 3
// values past a multiple of 4 go through affineSumGo.
func AffineSum(vals []uint32, a, b uint64) uint64 {
	if !useAVX {
		return affineSumGo(vals, a, b)
	}
	var s uint64
	fa, fa16, fb := float64(a), float64(a<<16%AffineMod), float64(b)
	for len(vals) >= 4 {
		n := min(len(vals), sumChunk) &^ 3
		s += affineSumAVX(vals[:n], fa, fa16, fb)
		vals = vals[n:]
	}
	return s + affineSumGo(vals, a, b)
}

// sumChunk bounds the values of one affineSumAVX call: their sum is below
// 2^22·p < 2^52, so every partial sum its float64 lanes take is exact.
const sumChunk = 1 << 22

// affineSumGo is AffineSum's plain-Go path and reference, one value at a
// time: v·a + b is below 2^62 + 2^30, exact in uint64.
func affineSumGo(vals []uint32, a, b uint64) uint64 {
	var s uint64
	for _, v := range vals {
		s += (uint64(v)*a + b) % AffineMod
	}
	return s
}
