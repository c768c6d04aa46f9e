package chaos

import (
	"metadataflow/internal/faults"
)

// ShrinkPlan minimizes a fault plan by delta debugging: while check (the
// "does the violation still reproduce?" predicate) keeps returning true, it
// greedily drops whole events, then shrinks the surviving events' fields
// (permanent crashes demoted to transient, triggers pulled toward the start
// of the run, degradation windows narrowed and flattened, panic budgets
// reduced). Candidates that fail ValidateFor(workers) are skipped. The
// search is bounded by maxRuns check invocations; it returns the smallest
// reproducing plan found and the number of runs spent. check must be true
// for the input plan (callers pass the plan that already violated).
func ShrinkPlan(p *faults.Plan, workers int, maxRuns int, check func(*faults.Plan) bool) (*faults.Plan, int) {
	runs := 0
	tryAdopt := func(cand *faults.Plan) bool {
		if runs >= maxRuns {
			return false
		}
		if err := cand.ValidateFor(workers); err != nil {
			return false
		}
		runs++
		return check(cand)
	}
	cur := clonePlan(p)

	// Phase 1: drop whole events to a fixpoint. Scanning from the end keeps
	// indices stable while deleting.
	for changed := true; changed && runs < maxRuns; {
		changed = false
		for i := len(cur.Crashes) - 1; i >= 0; i-- {
			cand := clonePlan(cur)
			cand.Crashes = append(cand.Crashes[:i], cand.Crashes[i+1:]...)
			if tryAdopt(cand) {
				cur, changed = cand, true
			}
		}
		for i := len(cur.Slowdowns) - 1; i >= 0; i-- {
			cand := clonePlan(cur)
			cand.Slowdowns = append(cand.Slowdowns[:i], cand.Slowdowns[i+1:]...)
			if tryAdopt(cand) {
				cur, changed = cand, true
			}
		}
		for i := len(cur.DiskFaults) - 1; i >= 0; i-- {
			cand := clonePlan(cur)
			cand.DiskFaults = append(cand.DiskFaults[:i], cand.DiskFaults[i+1:]...)
			if tryAdopt(cand) {
				cur, changed = cand, true
			}
		}
		for i := len(cur.Panics) - 1; i >= 0; i-- {
			cand := clonePlan(cur)
			cand.Panics = append(cand.Panics[:i], cand.Panics[i+1:]...)
			if tryAdopt(cand) {
				cur, changed = cand, true
			}
		}
	}

	// Phase 2: shrink the surviving events' fields to a fixpoint.
	for changed := true; changed && runs < maxRuns; {
		changed = false
		for i := range cur.Crashes {
			c := cur.Crashes[i]
			if c.Permanent {
				cand := clonePlan(cur)
				cand.Crashes[i].Permanent = false
				if tryAdopt(cand) {
					cur, changed = cand, true
				}
			}
			for _, after := range []int{0, c.AfterStages / 2} {
				if after >= cur.Crashes[i].AfterStages {
					continue
				}
				cand := clonePlan(cur)
				cand.Crashes[i].AfterStages = after
				if tryAdopt(cand) {
					cur, changed = cand, true
					break
				}
			}
			if cur.Crashes[i].At > 0 {
				cand := clonePlan(cur)
				cand.Crashes[i].At = 0
				if tryAdopt(cand) {
					cur, changed = cand, true
				}
			}
		}
		windows := func(ws []faults.Window, set func(*faults.Plan) []faults.Window) {
			for i := range ws {
				w := ws[i]
				if w.Factor > 2 {
					cand := clonePlan(cur)
					set(cand)[i].Factor = 2
					if tryAdopt(cand) {
						cur, changed = cand, true
						ws = set(cur)
					}
				}
				if w.To <= 0 || w.To-w.From > 1 {
					cand := clonePlan(cur)
					set(cand)[i].To = set(cand)[i].From + 1
					if tryAdopt(cand) {
						cur, changed = cand, true
						ws = set(cur)
					}
				}
			}
		}
		windows(cur.Slowdowns, func(p *faults.Plan) []faults.Window { return p.Slowdowns })
		windows(cur.DiskFaults, func(p *faults.Plan) []faults.Window { return p.DiskFaults })
		for i := range cur.Panics {
			if cur.Panics[i].Times > 1 {
				cand := clonePlan(cur)
				cand.Panics[i].Times = 1
				if tryAdopt(cand) {
					cur, changed = cand, true
				}
			}
		}
	}
	return cur, runs
}

// clonePlan deep-copies a fault plan so shrink candidates never alias.
func clonePlan(p *faults.Plan) *faults.Plan {
	out := &faults.Plan{Seed: p.Seed}
	out.Crashes = append([]faults.Crash(nil), p.Crashes...)
	out.Slowdowns = append([]faults.Window(nil), p.Slowdowns...)
	out.DiskFaults = append([]faults.Window(nil), p.DiskFaults...)
	out.Panics = append([]faults.PanicSpec(nil), p.Panics...)
	return out
}
