package plan

import (
	"fmt"
	"math"

	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// checkDupBranch flags explore branches whose resolved sub-graph hashes
// collide: both branches compute the same intermediate result from the same
// input, so running both is pure waste (and the choose between them is a
// coin flip). The hash already resolves ParamKey indirection and ignores
// labels, so differently-spelled duplicates collide too.
func checkDupBranch(report *spec.HashReport) []Finding {
	var out []Finding
	type firstSeen struct {
		branch int
		label  string
	}
	perExplore := make(map[string]map[spec.Hash]firstSeen)
	for _, bh := range report.Branches { // document order
		seen := perExplore[bh.ExplorePath]
		if seen == nil {
			seen = make(map[spec.Hash]firstSeen)
			perExplore[bh.ExplorePath] = seen
		}
		if prev, dup := seen[bh.Hash]; dup {
			out = append(out, Finding{
				Path: fmt.Sprintf("%s.branch[%d]", bh.ExplorePath, bh.Branch),
				Rule: "dupbranch",
				Msg: fmt.Sprintf("branch %d (%q) computes the same result as branch %d (%q): identical resolved sub-graph (hash %s)",
					bh.Branch, bh.Label, prev.branch, prev.label, bh.Hash),
			})
			continue
		}
		seen[bh.Hash] = firstSeen{branch: bh.Branch, label: bh.Label}
	}
	return out
}

// evaluatorRange returns the provable score range of an evaluator, if it
// has one: size counts rows, ratio divides by the source row count (no
// operator adds rows, so it stays within [0, 1]), and neg-mean-abs negates
// a magnitude. Empty results score 0 (size, ratio) or -Inf (neg-mean-abs),
// both inside the stated ranges. Mean and stddev are unbounded.
func evaluatorRange(evaluator string) (lo, hi float64, ok bool) {
	switch evaluator {
	case "size":
		return 0, math.Inf(1), true
	case "ratio":
		return 0, 1, true
	case "neg-mean-abs":
		return math.Inf(-1), 0, true
	}
	return 0, 0, false
}

// rowCountMayChange reports whether any step in a (normalized) explore body
// can change the row count: a filter (standalone or iterated), an iterate
// that can terminate early with an empty result, or a nested explore (whose
// branches may disagree). When nothing can, every branch produces the same
// number of rows and a row-counting evaluator cannot tell them apart.
func rowCountMayChange(body []spec.Step) bool {
	isFilter := func(fn string) bool {
		return fn == "filter-less" || fn == "filter-greater" || fn == "filter-absless"
	}
	for _, st := range body {
		switch {
		case st.Op != nil && isFilter(st.Op.Fn):
			return true
		case st.Iterate != nil && (isFilter(st.Iterate.Op.Fn) || st.Iterate.DivergeAboveMeanAbs > 0):
			return true
		case st.Explore != nil:
			return true
		}
	}
	return false
}

// checkDeadChoose flags a choose scope (e is an explore step's event) that
// cannot do its job: a selector that keeps every branch, an evaluator that
// scores every branch identically, and a selector range disjoint from the
// evaluator's provable score range (which would discard every branch and
// kill the job at runtime).
func checkDeadChoose(e stepEvent) []Finding {
	var out []Finding
	ex := e.Step.Explore
	path := e.Path + ".explore"
	sel := ex.Choose.Selector
	nb := len(ex.Branches)

	switch sel.Kind {
	case "topk", "bottomk":
		if sel.K >= nb {
			out = append(out, Finding{Path: path, Rule: "deadchoose",
				Msg: fmt.Sprintf("selector %s keeps all %d branches (k=%d): the choose never discards anything", sel.Kind, nb, sel.K)})
		}
	case "interval", "kinterval":
		if sel.Lo > sel.Hi {
			out = append(out, Finding{Path: path, Rule: "deadchoose",
				Msg: fmt.Sprintf("selector %s has an empty range [%g, %g]: no branch can ever be selected", sel.Kind, sel.Lo, sel.Hi)})
		}
	}

	if (ex.Choose.Evaluator == "size" || ex.Choose.Evaluator == "ratio") && !rowCountMayChange(ex.Body) {
		out = append(out, Finding{Path: path, Rule: "deadchoose",
			Msg: fmt.Sprintf("evaluator %q scores every branch identically: no step in the body changes the row count", ex.Choose.Evaluator)})
	}

	if lo, hi, ok := evaluatorRange(ex.Choose.Evaluator); ok {
		impossible := ""
		switch sel.Kind {
		case "threshold", "kthreshold":
			if !sel.AtMost && sel.Bound > hi {
				impossible = fmt.Sprintf("requires a score >= %g", sel.Bound)
			}
			if sel.AtMost && sel.Bound < lo {
				impossible = fmt.Sprintf("requires a score <= %g", sel.Bound)
			}
		case "interval", "kinterval":
			if sel.Lo <= sel.Hi && (sel.Hi < lo || sel.Lo > hi) {
				impossible = fmt.Sprintf("requires a score in [%g, %g]", sel.Lo, sel.Hi)
			}
		}
		if impossible != "" {
			out = append(out, Finding{Path: path, Rule: "deadchoose",
				Msg: fmt.Sprintf("selector %s %s but evaluator %q scores lie in [%g, %g]: no branch can ever be selected",
					sel.Kind, impossible, ex.Choose.Evaluator, lo, hi)})
		}
	}
	return out
}

// idempotentFn reports operator functions f with f(f(x)) = f(x): iterating
// them computes the same result as a single application.
func idempotentFn(fn string) bool {
	switch fn {
	case "identity", "abs", "normalize", "standardize",
		"filter-less", "filter-greater", "filter-absless":
		return true
	}
	return false
}

// checkDegenIterate flags an iteration (e is an iterate step's event) that
// cannot do useful work: a single round (a plain op), rounds beyond the
// configured maximum, an idempotent operator iterated more than once, and a
// divergence threshold the value ranges prove unreachable (the
// early-termination check would be evaluated every round and never fire).
func checkDegenIterate(e stepEvent, cfg Config) []Finding {
	var out []Finding
	it := e.Step.Iterate
	path := e.Path + ".iterate"
	if it.Rounds == 1 {
		out = append(out, Finding{Path: path, Rule: "degeniterate",
			Msg: fmt.Sprintf("iterate %q runs a single round: use a plain op step", it.Name)})
	}
	if it.Rounds > cfg.MaxIterateRounds {
		out = append(out, Finding{Path: path, Rule: "degeniterate",
			Msg: fmt.Sprintf("iterate %q unrolls %d rounds, above the configured maximum %d", it.Name, it.Rounds, cfg.MaxIterateRounds)})
	}
	if it.Rounds > 1 {
		a, b, _ := resolvedOpParams(it.Op, e.Params)
		switch {
		case idempotentFn(it.Op.Fn):
			out = append(out, Finding{Path: path, Rule: "degeniterate",
				Msg: fmt.Sprintf("iterating idempotent op %q for %d rounds computes the same result as one round", it.Op.Fn, it.Rounds)})
		case it.Op.Fn == "affine" && a == 1 && b == 0:
			out = append(out, Finding{Path: path, Rule: "degeniterate",
				Msg: fmt.Sprintf("iterating affine(1·x+0) for %d rounds is the identity", it.Rounds)})
		}
	}
	if it.DivergeAboveMeanAbs > 0 && e.IterStable && !e.Out.empty && !e.In.empty {
		if _, absHi := e.Out.abs(); absHi <= it.DivergeAboveMeanAbs {
			out = append(out, Finding{Path: path, Rule: "degeniterate",
				Msg: fmt.Sprintf("divergence threshold %g can never fire: iterated values stay within %s (mean |x| <= %g)",
					it.DivergeAboveMeanAbs, e.Out, absHi)})
		}
	}
	return out
}

// checkEmptyFilter reports the filter whose event e carries ProvedEmpty —
// the first along its chain that provably drops every row, by the interval
// abstract interpretation: everything downstream of it computes on nothing.
func checkEmptyFilter(e stepEvent) Finding {
	path := e.Path
	op := e.Step.Op
	if it := e.Step.Iterate; it != nil {
		op = &it.Op
		path += ".iterate"
	}
	_, _, limit := resolvedOpParams(*op, e.Params)
	return Finding{Path: path, Rule: "emptyfilter",
		Msg: fmt.Sprintf("filter %q (%s %g) statically drops every row: input values lie in %s",
			op.Name, op.Fn, limit, e.In)}
}

// checkMemFeasible proves the plan inadmissible or memory-defeating from
// its declared dataset size alone, against the target cluster shape. Both
// sub-checks are proofs of engine behaviour, not heuristics:
//
//  1. the allocator writes any partition larger than the per-worker budget
//     straight to disk (memorymgr Put), so ⌈bytes/partitions⌉ over the
//     budget means no source partition is ever memory-resident — the job
//     runs, but entirely from disk, with the AMM reduced to a bystander;
//  2. admission reserves workers × per-worker budget against the tenant
//     quota — a reservation that does not depend on the spec — so a
//     reservation above the quota is rejected for any spec: the job can
//     never be admitted.
//
// The quota check (2) only runs when a quota is configured. Working sets
// that are large but partition-wise under the budget are deliberately not
// flagged: the allocator spills and reloads per policy, so completion is
// never in doubt — only performance, which a sound rule cannot condemn.
func checkMemFeasible(n *spec.Spec, cfg Config) []Finding {
	var out []Finding
	bytes := sim.Bytes(n.Source.VirtualBytes)
	parts := sim.Bytes(n.Source.Partitions)
	if cfg.MemPerWorker > 0 && parts > 0 {
		if part := (bytes + parts - 1) / parts; part > cfg.MemPerWorker {
			out = append(out, Finding{Path: "source", Rule: "memfeasible",
				Msg: fmt.Sprintf("every partition (%s, a %s source split %d ways) exceeds the %s per-worker memory budget and bypasses memory straight to disk: repartition the source or the job runs with caching defeated",
					fmtBytes(part), fmtBytes(bytes), n.Source.Partitions, fmtBytes(cfg.MemPerWorker))})
		}
	}
	if cfg.TenantQuota > 0 {
		if reservation := sim.Bytes(cfg.Workers) * cfg.MemPerWorker; reservation > cfg.TenantQuota {
			out = append(out, Finding{Path: "spec", Rule: "memfeasible",
				Msg: fmt.Sprintf("admission reservation %s (%d workers × %s) exceeds the %s tenant quota: the job can never be admitted",
					fmtBytes(reservation), cfg.Workers, fmtBytes(cfg.MemPerWorker), fmtBytes(cfg.TenantQuota))})
		}
	}
	return out
}
