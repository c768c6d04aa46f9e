//go:build !amd64

package kde

// onPath runs f: off amd64 the plain-Go row kernels are the only path.
func onPath(_ bool, f func()) { f() }

// testPaths lists the one row-kernel path there is off amd64.
func testPaths() []bool { return []bool{false} }
