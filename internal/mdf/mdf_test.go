package mdf

import (
	"sort"
	"testing"
	"testing/quick"

	"metadataflow/internal/dataset"
)

// orderAware is the engine's hook for sessions whose pruning needs sorted
// branch order.
type orderAware interface{ SetSortedOrder(sorted bool) }

func offerAll(t *testing.T, sel Selector, scores []float64) (selected []int, discards []int, doneAt int) {
	t.Helper()
	s := sel.NewSession(len(scores))
	doneAt = -1
	for i, sc := range scores {
		d, done := s.Offer(i, sc)
		discards = append(discards, d...)
		if done && doneAt == -1 {
			doneAt = i
		}
	}
	return s.Selected(), discards, doneAt
}

func TestTopKSelectsHighest(t *testing.T) {
	sel, _, done := offerAll(t, TopK(2), []float64{3, 9, 1, 7, 5})
	if done != -1 {
		t.Fatal("top-k is exhaustive: must not finish early")
	}
	if want := []int{1, 3}; !equal(sel, want) {
		t.Fatalf("selected %v, want %v", sel, want)
	}
}

func TestTopKDiscardsIncrementally(t *testing.T) {
	s := TopK(1).NewSession(3)
	if d, _ := s.Offer(0, 5); len(d) != 0 {
		t.Fatal("first offer cannot discard")
	}
	if d, _ := s.Offer(1, 9); !equal(d, []int{0}) {
		t.Fatalf("losing branch 0 should be discarded, got %v", d)
	}
	if d, _ := s.Offer(2, 1); !equal(d, []int{2}) {
		t.Fatalf("branch 2 should be discarded immediately, got %v", d)
	}
}

func TestMinMaxBottomK(t *testing.T) {
	scores := []float64{4, 2, 8, 6}
	if sel, _, _ := offerAll(t, Min(), scores); !equal(sel, []int{1}) {
		t.Errorf("Min selected %v, want [1]", sel)
	}
	if sel, _, _ := offerAll(t, Max(), scores); !equal(sel, []int{2}) {
		t.Errorf("Max selected %v, want [2]", sel)
	}
	if sel, _, _ := offerAll(t, BottomK(2), scores); !equal(sel, []int{0, 1}) {
		t.Errorf("BottomK selected %v, want [0 1]", sel)
	}
}

func TestThresholdSelectsAllPassing(t *testing.T) {
	sel, discards, done := offerAll(t, Threshold(5, false), []float64{4, 6, 5, 9})
	if done != -1 {
		t.Fatal("threshold is exhaustive")
	}
	if want := []int{1, 2, 3}; !equal(sel, want) {
		t.Fatalf("selected %v, want %v", sel, want)
	}
	if !equal(discards, []int{0}) {
		t.Fatalf("discards %v, want [0]", discards)
	}
}

func TestThresholdAtMost(t *testing.T) {
	sel, _, _ := offerAll(t, Threshold(5, true), []float64{4, 6, 5, 9})
	if want := []int{0, 2}; !equal(sel, want) {
		t.Fatalf("selected %v, want %v", sel, want)
	}
}

func TestInterval(t *testing.T) {
	sel, _, _ := offerAll(t, Interval(3, 6), []float64{2, 3, 6.5, 4, 6})
	if want := []int{1, 3, 4}; !equal(sel, want) {
		t.Fatalf("selected %v, want %v", sel, want)
	}
}

func TestKThresholdStopsEarly(t *testing.T) {
	sel, _, done := offerAll(t, KThreshold(2, 5, false), []float64{6, 1, 8, 9, 7})
	if done != 2 {
		t.Fatalf("done at offer %d, want 2 (after second pass)", done)
	}
	if want := []int{0, 2}; !equal(sel, want) {
		t.Fatalf("selected %v, want %v", sel, want)
	}
}

func TestKIntervalStopsEarly(t *testing.T) {
	_, _, done := offerAll(t, KInterval(1, 2, 4), []float64{5, 3, 2})
	if done != 1 {
		t.Fatalf("done at %d, want 1", done)
	}
}

func TestModeSelectsMostFrequent(t *testing.T) {
	sel, discards, done := offerAll(t, Mode(), []float64{2, 3, 2, 3, 2})
	if want := []int{0, 2, 4}; !equal(sel, want) {
		t.Fatalf("selected %v, want %v", sel, want)
	}
	// Mode discards only at the final offer.
	if done != 4 {
		t.Fatalf("mode done at %d, want 4", done)
	}
	if !equal(discards, []int{1, 3}) {
		t.Fatalf("discards %v, want [1 3]", discards)
	}
}

func TestModeIncompleteSelectsNothing(t *testing.T) {
	s := Mode().NewSession(3)
	s.Offer(0, 1)
	if sel := s.Selected(); sel != nil {
		t.Fatalf("incomplete mode session selected %v", sel)
	}
}

func TestSelectorProperties(t *testing.T) {
	cases := []struct {
		sel           Selector
		assoc, nonExh bool
	}{
		{TopK(3), true, false},
		{Min(), true, false},
		{Max(), true, false},
		{Threshold(1, false), true, false},
		{Interval(0, 1), true, false},
		{KThreshold(2, 1, false), true, true},
		{KInterval(2, 0, 1), true, true},
		{Mode(), false, false},
	}
	for _, c := range cases {
		if c.sel.Associative() != c.assoc {
			t.Errorf("%s: associative = %v, want %v", c.sel.Name(), c.sel.Associative(), c.assoc)
		}
		if c.sel.NonExhaustive() != c.nonExh {
			t.Errorf("%s: non-exhaustive = %v, want %v", c.sel.Name(), c.sel.NonExhaustive(), c.nonExh)
		}
	}
}

func TestSelectorPanicsOnBadK(t *testing.T) {
	for _, f := range []func(){
		func() { TopK(0) },
		func() { BottomK(0) },
		func() { KThreshold(0, 1, false) },
		func() { KInterval(0, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for k < 1")
				}
			}()
			f()
		}()
	}
}

func dsOfSize(n int) *dataset.Dataset {
	rows := make([]dataset.Row, n)
	return dataset.FromRows("d", rows, 1, 1)
}

func TestEvaluators(t *testing.T) {
	if got := SizeEvaluator().Score(dsOfSize(7)); got != 7 {
		t.Errorf("SizeEvaluator = %v, want 7", got)
	}
	if got := RatioEvaluator(10).Score(dsOfSize(5)); got != 0.5 {
		t.Errorf("RatioEvaluator = %v, want 0.5", got)
	}
	if got := RatioEvaluator(0).Score(dsOfSize(5)); got != 0 {
		t.Errorf("RatioEvaluator with zero baseline = %v, want 0", got)
	}
	fe := FuncEvaluator("const", func(*dataset.Dataset) float64 { return 42 })
	if got := fe.Score(nil); got != 42 {
		t.Errorf("FuncEvaluator = %v, want 42", got)
	}
}

// TestMonotonePruning: with a monotone evaluator, sorted execution order and
// top-1 selection, the session reports done once scores decline past the
// current best (Tab. 1 row 1).
func TestMonotonePruning(t *testing.T) {
	eval := Evaluator{Name: "m", Monotone: true, Fn: func(*dataset.Dataset) float64 { return 0 }}
	c := NewChooser(eval, TopK(1))
	s := c.NewSession(6)
	s.(orderAware).SetSortedOrder(true)
	scores := []float64{10, 8, 6, 4, 2, 1} // monotone decreasing
	doneAt := -1
	for i, sc := range scores {
		if _, done := s.Offer(i, sc); done {
			doneAt = i
			break
		}
	}
	if doneAt == -1 || doneAt == len(scores)-1 {
		t.Fatalf("monotone pruning should stop early, done at %d", doneAt)
	}
	if sel := s.Selected(); !equal(sel, []int{0}) {
		t.Fatalf("selected %v, want [0]", sel)
	}
}

// TestMonotonePruningInactiveWithoutSortedOrder: without the sorted-order
// declaration the wrapper must not prune.
func TestMonotonePruningInactiveWithoutSortedOrder(t *testing.T) {
	eval := Evaluator{Name: "m", Monotone: true, Fn: func(*dataset.Dataset) float64 { return 0 }}
	c := NewChooser(eval, TopK(1))
	s := c.NewSession(6)
	for i, sc := range []float64{10, 8, 6, 4, 2, 1} {
		if _, done := s.Offer(i, sc); done {
			t.Fatalf("pruned at %d without sorted order", i)
		}
	}
}

// TestConvexPruning: a convex evaluator with min selection stops after the
// valley has clearly been passed (Tab. 1 row 2).
func TestConvexPruning(t *testing.T) {
	eval := Evaluator{Name: "c", Convex: true, Fn: func(*dataset.Dataset) float64 { return 0 }}
	c := NewChooser(eval, Min())
	s := c.NewSession(7)
	s.(orderAware).SetSortedOrder(true)
	scores := []float64{9, 5, 2, 4, 7, 9, 11} // valley at index 2
	doneAt := -1
	for i, sc := range scores {
		if _, done := s.Offer(i, sc); done {
			doneAt = i
			break
		}
	}
	if doneAt == -1 || doneAt == len(scores)-1 {
		t.Fatalf("convex pruning should stop early, done at %d", doneAt)
	}
	if sel := s.Selected(); !equal(sel, []int{2}) {
		t.Fatalf("selected %v, want [2] (the valley)", sel)
	}
}

// TestNonAssociativeNeverWrapped: mode must not get property pruning even
// with a monotone evaluator.
func TestNonAssociativeNeverWrapped(t *testing.T) {
	eval := Evaluator{Name: "m", Monotone: true, Fn: func(*dataset.Dataset) float64 { return 0 }}
	c := NewChooser(eval, Mode())
	s := c.NewSession(4)
	if _, ok := s.(orderAware); ok {
		t.Fatal("mode session must not be order-aware")
	}
}

func TestChooserPropertyForwarding(t *testing.T) {
	c := NewChooser(Evaluator{Monotone: true, Fn: func(*dataset.Dataset) float64 { return 1 }}, KThreshold(1, 0, false))
	if !c.Associative() || !c.NonExhaustive() || !c.MonotoneEval() || c.ConvexEval() {
		t.Fatal("chooser must forward evaluator/selector properties")
	}
	if c.Score(nil) != 1 {
		t.Fatal("chooser must forward scoring")
	}
}

// Property: for any scores, top-k selects exactly min(k, n) branches and
// they are the k best under the selector's ordering.
func TestTopKSelectionProperty(t *testing.T) {
	f := func(raw []uint16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := int(kRaw)%4 + 1
		scores := make([]float64, len(raw))
		for i, r := range raw {
			scores[i] = float64(r)
		}
		s := TopK(k).NewSession(len(scores))
		for i, sc := range scores {
			s.Offer(i, sc)
		}
		sel := s.Selected()
		want := k
		if len(scores) < k {
			want = len(scores)
		}
		if len(sel) != want {
			return false
		}
		// Every selected score >= every unselected score.
		inSel := map[int]bool{}
		for _, b := range sel {
			inSel[b] = true
		}
		minSel := -1.0
		for _, b := range sel {
			if minSel < 0 || scores[b] < minSel {
				minSel = scores[b]
			}
		}
		for i, sc := range scores {
			if !inSel[i] && sc > minSel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a session's discards and final selection are disjoint, and
// discards are never repeated.
func TestDiscardSelectionDisjointProperty(t *testing.T) {
	selectors := []Selector{TopK(2), Min(), Threshold(100, false), KThreshold(2, 100, false), Mode()}
	f := func(raw []uint16, which uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sel := selectors[int(which)%len(selectors)]
		s := sel.NewSession(len(raw))
		seen := map[int]bool{}
		done := false
		var offered int
		for i, r := range raw {
			if done {
				break
			}
			var d []int
			d, done = s.Offer(i, float64(r))
			offered++
			for _, b := range d {
				if seen[b] {
					return false // double discard
				}
				seen[b] = true
			}
		}
		for _, b := range s.Selected() {
			if seen[b] {
				return false // selected a discarded branch
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
