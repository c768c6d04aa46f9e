//go:build !amd64

package vecmath

// onPath runs f: off amd64 the plain-Go rows are the only path.
func onPath(_ bool, f func()) { f() }

// testPaths lists the one path there is off amd64.
func testPaths() []bool { return []bool{false} }

// canAVX is false off amd64.
func canAVX() bool { return false }
