package scheduler

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"metadataflow/internal/graph"
)

// ScoreAware is implemented by stateful hints that learn from evaluator
// scores observed during execution (§4.2(iii): "scheduling hints may also be
// stateful and take intermediate results into account"). The engine calls
// ObserveScore after every choose evaluator invocation.
type ScoreAware interface {
	// ObserveScore reports that the branch whose head operator carries the
	// given hint value scored score at the named choose operator.
	ObserveScore(chooseOp *graph.Operator, hint, score float64)
}

// ModelHint is a stateful hint that fits a quadratic regression of score
// against the explorable's hint value from the scores observed so far and
// executes the branches with the best predicted scores first (the
// model-based prioritisation of hyper-parameter search [19] cited in §4.2).
// Until enough observations exist it probes the extremes and the middle of
// the hint range to spread out the regression's support.
//
// ModelHint accelerates non-exhaustive selections (k-threshold, k-interval):
// good branches are found sooner, so superfluous branches are pruned
// earlier. With exhaustive selectors it changes only the discard order.
func ModelHint(maximize bool) Hint {
	return &modelHint{maximize: maximize, scores: map[float64]float64{}}
}

type modelHint struct {
	maximize bool
	scores   map[float64]float64 // hint value -> observed score
}

func (*modelHint) Name() string { return "model" }

// Sorted reports false: the execution order follows predicted quality, not
// the explorable's parameter order, so monotone/convex pruning stays off.
func (*modelHint) Sorted() bool { return false }

// ObserveScore implements ScoreAware.
func (m *modelHint) ObserveScore(_ *graph.Operator, hint, score float64) {
	m.scores[hint] = score
}

// Order implements Hint.
func (m *modelHint) Order(cands []*graph.Stage) []*graph.Stage {
	out := byID(cands)
	if len(m.scores) < 3 {
		// Probe phase: lowest hint, highest hint, then middle-out.
		slices.SortStableFunc(out, func(a, b *graph.Stage) int {
			return cmp.Compare(probeRank(a.First().Hint, out), probeRank(b.First().Hint, out))
		})
		return out
	}
	a, b, c, ok := m.fitQuadratic()
	if !ok {
		return out
	}
	pred := func(h float64) float64 { return a*h*h + b*h + c }
	slices.SortStableFunc(out, func(x, y *graph.Stage) int {
		px, py := pred(x.First().Hint), pred(y.First().Hint)
		if m.maximize {
			return cmp.Compare(py, px)
		}
		return cmp.Compare(px, py)
	})
	return out
}

// probeRank orders candidates extremes-first so the regression sees a wide
// support before predictions begin.
func probeRank(h float64, cands []*graph.Stage) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, st := range cands {
		v := st.First().Hint
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	mid := (lo + hi) / 2
	span := hi - lo
	if span == 0 {
		return 0
	}
	// Distance from the nearest extreme, normalised; extremes rank first,
	// the middle next.
	d := math.Min(h-lo, hi-h) / span
	if math.Abs(h-mid) < span/1e6 {
		d = 0.1
	}
	return d
}

// fitQuadratic performs a least-squares fit score ≈ a·h² + b·h + c over the
// observations; ok is false when the normal equations are singular.
func (m *modelHint) fitQuadratic() (a, b, c float64, ok bool) {
	n := float64(len(m.scores))
	// Accumulate over sorted hint values: float addition is not
	// associative, so summing in map-iteration order would leak
	// nondeterminism into the fitted coefficients and from there into the
	// scheduler's branch order.
	hints := make([]float64, 0, len(m.scores))
	for h := range m.scores {
		hints = append(hints, h)
	}
	sort.Float64s(hints)
	var sh, sh2, sh3, sh4, sy, shy, sh2y float64
	for _, h := range hints {
		y := m.scores[h]
		h2 := h * h
		sh += h
		sh2 += h2
		sh3 += h2 * h
		sh4 += h2 * h2
		sy += y
		shy += h * y
		sh2y += h2 * y
	}
	// Solve the 3x3 normal equations with Cramer's rule.
	det := func(m [3][3]float64) float64 {
		return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
			m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
			m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	}
	A := [3][3]float64{{sh4, sh3, sh2}, {sh3, sh2, sh}, {sh2, sh, n}}
	d := det(A)
	if math.Abs(d) < 1e-12 {
		return 0, 0, 0, false
	}
	col := func(i int, v [3]float64) [3][3]float64 {
		out := A
		for r := 0; r < 3; r++ {
			out[r][i] = v[r]
		}
		return out
	}
	rhs := [3]float64{sh2y, shy, sy}
	a = det(col(0, rhs)) / d
	b = det(col(1, rhs)) / d
	c = det(col(2, rhs)) / d
	return a, b, c, true
}

// BinarySearchHint probes the explorable range like a ternary search over a
// convex (or concave, when maximize is true) evaluator (§4.2(i)): it
// schedules the extremes first, then repeatedly the untried branch closest
// to the midpoint of the best bracket seen so far, homing in on the optimum
// in O(log B) evaluations when the selection is non-exhaustive.
func BinarySearchHint(maximize bool) Hint {
	return &binarySearchHint{maximize: maximize, scores: map[float64]float64{}}
}

type binarySearchHint struct {
	maximize bool
	scores   map[float64]float64
}

func (*binarySearchHint) Name() string { return "binary-search" }
func (*binarySearchHint) Sorted() bool { return false }

// ObserveScore implements ScoreAware.
func (h *binarySearchHint) ObserveScore(_ *graph.Operator, hint, score float64) {
	h.scores[hint] = score
}

// Order implements Hint.
func (h *binarySearchHint) Order(cands []*graph.Stage) []*graph.Stage {
	out := slices.Clone(cands)
	slices.SortStableFunc(out, func(a, b *graph.Stage) int { return cmp.Compare(a.First().Hint, b.First().Hint) })
	switch len(h.scores) {
	case 0:
		// First probe: the lowest extreme.
		return out
	case 1:
		// Second probe: the candidate farthest from the explored point.
		var explored float64
		for v := range h.scores {
			explored = v
		}
		slices.SortStableFunc(out, func(a, b *graph.Stage) int {
			return cmp.Compare(math.Abs(b.First().Hint-explored), math.Abs(a.First().Hint-explored))
		})
		return out
	}
	target := h.bracketMid(out)
	slices.SortStableFunc(out, func(a, b *graph.Stage) int {
		return cmp.Compare(math.Abs(a.First().Hint-target), math.Abs(b.First().Hint-target))
	})
	return out
}

// bracketMid returns the midpoint of the bracket around the best observed
// score: its explored neighbours on each side, extended to the unexplored
// candidate range when the best sits at the boundary of the explored hints.
func (h *binarySearchHint) bracketMid(cands []*graph.Stage) float64 {
	hints := make([]float64, 0, len(h.scores))
	for v := range h.scores {
		hints = append(hints, v)
	}
	sort.Float64s(hints)
	bestIdx := 0
	for i, v := range hints {
		better := h.scores[v] < h.scores[hints[bestIdx]]
		if h.maximize {
			better = h.scores[v] > h.scores[hints[bestIdx]]
		}
		if better {
			bestIdx = i
		}
	}
	candLo := cands[0].First().Hint
	candHi := cands[len(cands)-1].First().Hint
	lo := math.Min(hints[0], candLo)
	hi := math.Max(hints[len(hints)-1], candHi)
	if bestIdx > 0 {
		lo = hints[bestIdx-1]
	}
	if bestIdx < len(hints)-1 {
		hi = hints[bestIdx+1]
	}
	return (lo + hi) / 2
}
