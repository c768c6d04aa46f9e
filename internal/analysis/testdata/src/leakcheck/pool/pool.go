// Package pool declares the paired-resource type the leakcheck fixtures
// acquire from. The declaring package itself is exempt from the rule.
package pool

// Buf is a resource with two acquire/release method pairs.
type Buf struct{ n int }

// Put acquires a slot; Discard releases it.
func (b *Buf) Put(k int)     { b.n++ }
func (b *Buf) Discard(k int) { b.n-- }

// Pin protects a slot from eviction; Unpin lifts the protection.
func (b *Buf) Pin(k int)   { b.n++ }
func (b *Buf) Unpin(k int) { b.n-- }

// Probe is an interface-typed resource: callers pin through the interface,
// never a concrete type, so leakcheck must match the pair on the
// interface's method set.
type Probe interface {
	Pin(k int)
	Unpin(k int)
}

// Auditor is the half of a probe split off into an interface of its own,
// reached by a type assertion on the probe: it declares both sides of the
// pin pair, so the pair is matched on it as on Probe.
type Auditor interface {
	Pin(k int)
	Unpin(k int)
	Decision(what string)
}

// Fill calls Put with no Discard anywhere: legal in the declaring package,
// whose helpers and tests manage the resource directly.
func Fill(b *Buf) { b.Put(1) }
