// Package leakcheck is the unbalanced fixture: it acquires through both
// method pairs and never releases either, so every acquire site is
// reported.
package leakcheck

import "fixture/leakcheck/pool"

// Leak fills and pins without ever releasing.
func Leak(b *pool.Buf) {
	b.Put(1) // want:leakcheck
	b.Pin(1) // want:leakcheck
}

// LeakAgain shows every acquire site is reported, not just the first.
func LeakAgain(b *pool.Buf) {
	b.Put(2) // want:leakcheck
}

// LeakProbePin pins through the interface and never unpins: the pair is
// declared on pool.Probe's method set, not a concrete type.
func LeakProbePin(p pool.Probe) {
	p.Pin(1) // want:leakcheck
}

// LeakAuditPin pins through the audit half it asserts off a probe and never
// unpins: splitting the pair into an interface of its own does not take it
// out of the rule.
func LeakAuditPin(p pool.Probe) {
	if a, ok := p.(pool.Auditor); ok {
		a.Pin(1) // want:leakcheck
		a.Decision("pick")
	}
}
