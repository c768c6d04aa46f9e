// Package ok is the balanced fixture: a release anywhere in the package
// covers every acquire of that pair, matching how the engine releases far
// from where it acquires.
package ok

import "fixture/leakcheck/pool"

// Use acquires through both pairs.
func Use(b *pool.Buf) {
	b.Put(1)
	b.Pin(1)
	b.Put(2)
}

// Done releases both pairs on a different path.
func Done(b *pool.Buf) {
	b.Discard(1)
	b.Discard(2)
	b.Unpin(1)
}

// Pinned balances an interface-typed pair within the package.
func Pinned(p pool.Probe) {
	p.Pin(1)
	p.Unpin(1)
}
