package synthetic

import "metadataflow/internal/cpufeat"

// onPath runs f with the scored pass on the AVX path or on the plain-Go
// one, and then restores the choice.
func onPath(avx bool, f func()) {
	saved := useAVX
	useAVX = avx
	defer func() { useAVX = saved }()
	f()
}

// testPaths lists the paths of the scored pass this machine runs: the
// plain-Go one, and the AVX one where the CPU has it.
func testPaths() []bool {
	if cpufeat.HasAVX() {
		return []bool{false, true}
	}
	return []bool{false}
}
