//go:build !amd64

package synthetic

// onPath runs f: off amd64 the plain-Go sum is the only path.
func onPath(_ bool, f func()) { f() }

// testPaths lists the one path of the scored pass there is off amd64.
func testPaths() []bool { return []bool{false} }
