package scheduler

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"metadataflow/internal/graph"
)

// observedPick picks from ready with last, and returns the pick and the
// ranked candidate list an observer received with it.
func observedPick(pol Policy, ready []*graph.Stage, last *graph.Stage) (*graph.Stage, PickRecord) {
	var rec PickRecord
	pol.(PickObservable).SetPickObserver(func(r PickRecord) {
		rec = r
		rec.Candidates = slices.Clone(r.Candidates)
	})
	return pol.Pick(ready, last), rec
}

// TestPickIsFirstInOrder checks BAS's pick against its hint's Order over
// random ready lists: a branch-head subset in ID order, with no successor of
// the last stage among them, so the hint decides. The hints repeat values and
// hold ±Inf and NaN. The pick must be Order(ready)[0], with an observer
// installed or not, and the observer must receive Order(ready).
func TestPickIsFirstInOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	hints := []float64{3, nan, 1, 2, 2, -inf, inf, 0, nan, 1, -1, inf, 3, -inf, 0.5, nan}
	p, heads := buildPlan(t, hints)
	rng := rand.New(rand.NewSource(1))
	for _, hint := range []Hint{DefaultHint(), SortedHint(false), SortedHint(true)} {
		plain, observed := BAS(hint), BAS(hint)
		plain.Init(p)
		observed.Init(p)
		for trial := 0; trial < 500; trial++ {
			var ready []*graph.Stage
			for _, h := range heads {
				if rng.Intn(2) == 0 {
					ready = append(ready, h)
				}
			}
			if len(ready) == 0 {
				continue
			}
			want := hint.Order(ready)
			if got := plain.Pick(ready, nil); got != want[0] {
				t.Fatalf("%T%+v over %v: picked %v, Order has %v first", hint, hint, ready, got, want[0])
			}
			got, rec := observedPick(observed, ready, nil)
			if got != want[0] || rec.Chosen != got || !slices.Equal(rec.Candidates, want) {
				t.Fatalf("%T%+v over %v: observed pick %v ranking %v, Order gives %v", hint, hint, ready, got, rec.Candidates, want)
			}
		}
	}
}

// TestSortedHintOrdersNaN pins the order of a NaN hint: first ascending,
// last descending, and never a reason to leave the rest unsorted. Order of
// every subset of the heads is a subsequence of Order of all of them, which
// is what a strict weak order guarantees and ranking by position relies on.
func TestSortedHintOrdersNaN(t *testing.T) {
	nan := math.NaN()
	_, heads := buildPlan(t, []float64{3, nan, 1, 2})
	hintsOf := func(sts []*graph.Stage) []float64 {
		var out []float64
		for _, st := range sts {
			out = append(out, st.First().Hint)
		}
		return out
	}
	same := func(got, want []float64) bool {
		return slices.EqualFunc(got, want, func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) })
	}
	for _, c := range []struct {
		desc bool
		want []float64
	}{
		{false, []float64{nan, 1, 2, 3}},
		{true, []float64{3, 2, 1, nan}},
	} {
		h := SortedHint(c.desc)
		all := h.Order(heads)
		if got := hintsOf(all); !same(got, c.want) {
			t.Fatalf("descending=%v: Order gives hints %v, want %v", c.desc, got, c.want)
		}
		for mask := 1; mask < 1<<len(heads); mask++ {
			var sub []*graph.Stage
			for i, st := range heads {
				if mask&(1<<i) != 0 {
					sub = append(sub, st)
				}
			}
			want := slices.DeleteFunc(slices.Clone(all), func(st *graph.Stage) bool { return !slices.Contains(sub, st) })
			if got := h.Order(sub); !slices.Equal(got, want) {
				t.Fatalf("descending=%v: Order of subset %v is %v, not its place in %v", c.desc, sub, got, all)
			}
		}
	}
}
