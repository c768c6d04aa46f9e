package mdf

import "testing"

// TestOfferAllocatesNothingOnceFull is the gate on the selection session:
// once a top-k or bottom-k session keeps k scores, an offer — whether it
// displaces a kept score or is itself discarded — allocates nothing.
func TestOfferAllocatesNothingOnceFull(t *testing.T) {
	for _, sel := range []Selector{TopK(4), BottomK(4), Max()} {
		session := NewChooser(SizeEvaluator(), sel).NewSession(1 << 20)
		i := 0
		offer := func() {
			session.Offer(i, float64(i*7919%97))
			i++
		}
		for i < 4 {
			offer()
		}
		if n := testing.AllocsPerRun(500, offer); n != 0 {
			t.Errorf("%s: Offer allocates %.1f times once the session is full, want 0", sel.Name(), n)
		}
	}
}
