package mdf

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refTopK is the sort-based selection session topKSession replaced: every
// offer appends the score and stably re-sorts everything kept, best first.
type refTopK struct {
	sel  topK
	kept []scored
}

func (s *refTopK) Offer(branch int, score float64) (discard []int, done bool) {
	s.kept = append(s.kept, scored{branch, score})
	sort.SliceStable(s.kept, func(i, j int) bool { return s.sel.Better(s.kept[i].score, s.kept[j].score) })
	if len(s.kept) > s.sel.k {
		evicted := s.kept[len(s.kept)-1]
		s.kept = s.kept[:len(s.kept)-1]
		discard = []int{evicted.branch}
	}
	return discard, false
}

func (s *refTopK) Selected() []int { return branchesOf(s.kept) }

func (s *refTopK) NeverSelect(sc float64) bool {
	if len(s.kept) < s.sel.k {
		return false
	}
	return !s.sel.Better(sc, s.kept[len(s.kept)-1].score)
}

// TestTopKMatchesSortReference compares top-k and bottom-k sessions with the
// sort-based reference offer for offer — the discards, the selection and
// what NeverSelect answers for the score just offered and for a probe score —
// over scores drawn from a small set, so that ties are the rule, with ±Inf
// and NaN among them. A NaN is neither better nor worse than any score, which
// makes Better no ordering: what a sort does with it depends on the sort, and
// sort.SliceStable switches algorithm above 20 elements. The sessions with
// NaN scores therefore keep at most 19; the others go to k = 40.
func TestTopKMatchesSortReference(t *testing.T) {
	finite := []float64{-2.5, -1, 0, math.Copysign(0, -1), 0.5, 1, 1, 3, 7, math.Inf(1), math.Inf(-1)}
	withNaN := append([]float64{math.NaN(), math.NaN()}, finite...)
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scores, maxK := finite, 40
		if seed%2 == 0 {
			scores, maxK = withNaN, 19
		}
		sel := topK{k: 1 + rng.Intn(maxK), lowest: rng.Intn(2) == 0}
		total := 1 + rng.Intn(120)
		got := sel.NewSession(total).(*topKSession)
		want := &refTopK{sel: sel}
		for b := 0; b < total; b++ {
			sc := scores[rng.Intn(len(scores))]
			gotDiscard, gotDone := got.Offer(b, sc)
			wantDiscard, wantDone := want.Offer(b, sc)
			if !reflect.DeepEqual(append([]int(nil), gotDiscard...), wantDiscard) || gotDone != wantDone {
				t.Fatalf("seed %d %s offer %d (%v): discards %v done %v, reference %v and %v",
					seed, sel.Name(), b, sc, gotDiscard, gotDone, wantDiscard, wantDone)
			}
			if g, w := got.Selected(), want.Selected(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d %s offer %d (%v): selected %v, reference %v", seed, sel.Name(), b, sc, g, w)
			}
			// The kept order decides the next eviction among equal scores.
			for i := range want.kept {
				if got.kept[i].branch != want.kept[i].branch {
					t.Fatalf("seed %d %s offer %d (%v): kept %v, reference %v", seed, sel.Name(), b, sc, got.kept, want.kept)
				}
			}
			for _, probe := range []float64{sc, scores[rng.Intn(len(scores))]} {
				if g, w := got.NeverSelect(probe), want.NeverSelect(probe); g != w {
					t.Fatalf("seed %d %s offer %d: NeverSelect(%v) = %v, reference %v", seed, sel.Name(), b, probe, g, w)
				}
			}
		}
	}
}
