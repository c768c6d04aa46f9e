package plan

import (
	"fmt"

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
	type sub struct {
		explore string
		hash    spec.Hash
	}
	type firstSeen struct {
		branch int
		label  string
	}
	seen := make(map[sub]firstSeen, len(report.Branches))
	for _, bh := range report.Branches { // document order
		key := sub{bh.ExplorePath, bh.Hash}
		if prev, dup := seen[key]; dup {
			out = append(out, Finding{
				Path: fmt.Sprintf("%s.branch[%d]", bh.ExplorePath, bh.Branch),
				Rule: "dupbranch",
				Msg: fmt.Sprintf("branch %d (%q) computes the same result as branch %d (%q): identical resolved sub-graph (hash %s)",
					bh.Branch, bh.Label, prev.branch, prev.label, bh.Hash),
			})
			continue
		}
		seen[key] = firstSeen{branch: bh.Branch, label: bh.Label}
	}
	return out
}

// rowCountMayChange reports whether any step in a (normalized) explore body
// can change the row count: a filter (standalone or iterated), an iterate
// that can terminate early with an empty result, or a nested explore (whose
// branches may disagree). When nothing can, every branch produces the same
// number of rows and a row-counting evaluator cannot tell them apart.
func rowCountMayChange(body []spec.Step) bool {
	for _, st := range body {
		switch {
		case st.Op != nil && spec.Ops[st.Op.Fn].Filter:
			return true
		case st.Iterate != nil && (spec.Ops[st.Iterate.Op.Fn].Filter || st.Iterate.DivergeAboveMeanAbs > 0):
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
// kill the job at runtime). The selector's row says which parameters it
// reads: one that reads k alone keeps the k best (topk, bottomk), and one
// that reads a bound or a range keeps only scores past or inside it.
func checkDeadChoose(e stepEvent) []Finding {
	var out []Finding
	ex := e.Step.Explore
	sel := ex.Choose.Selector
	reads := spec.Selectors[sel.Kind].Reads
	nb := len(ex.Branches)

	if reads == spec.SelectK && sel.K >= nb {
		out = append(out, Finding{Rule: "deadchoose",
			Msg: fmt.Sprintf("selector %s keeps all %d branches (k=%d): the choose never discards anything", sel.Kind, nb, sel.K)})
	}
	if reads&spec.SelectRange != 0 && sel.Lo > sel.Hi {
		out = append(out, Finding{Rule: "deadchoose",
			Msg: fmt.Sprintf("selector %s has an empty range [%g, %g]: no branch can ever be selected", sel.Kind, sel.Lo, sel.Hi)})
	}

	ev := spec.Evaluators[ex.Choose.Evaluator]
	if ev.RowCount && !rowCountMayChange(ex.Body) {
		out = append(out, Finding{Rule: "deadchoose",
			Msg: fmt.Sprintf("evaluator %q scores every branch identically: no step in the body changes the row count", ex.Choose.Evaluator)})
	}

	if !ev.Unbounded {
		lo, hi := ev.Lo, ev.Hi
		impossible := ""
		switch {
		case reads&spec.SelectBound != 0:
			if !sel.AtMost && sel.Bound > hi {
				impossible = fmt.Sprintf("requires a score >= %g", sel.Bound)
			}
			if sel.AtMost && sel.Bound < lo {
				impossible = fmt.Sprintf("requires a score <= %g", sel.Bound)
			}
		case reads&spec.SelectRange != 0:
			if sel.Lo <= sel.Hi && (sel.Hi < lo || sel.Lo > hi) {
				impossible = fmt.Sprintf("requires a score in [%g, %g]", sel.Lo, sel.Hi)
			}
		}
		if impossible != "" {
			out = append(out, Finding{Rule: "deadchoose",
				Msg: fmt.Sprintf("selector %s %s but evaluator %q scores lie in [%g, %g]: no branch can ever be selected",
					sel.Kind, impossible, ex.Choose.Evaluator, lo, hi)})
		}
	}
	return atPath(out, e.Path, ".explore")
}

// atPath anchors the findings a rule built for one step at the step's path
// followed by suffix, formatted once and only when there is a finding.
func atPath(out []Finding, p stepPath, suffix string) []Finding {
	if len(out) == 0 {
		return out
	}
	path := p.format(suffix)
	for i := range out {
		out[i].Path = path
	}
	return out
}

// checkDegenIterate flags an iteration (e is an iterate step's event) that
// cannot do useful work: a single round (a plain op), rounds beyond the
// maximum, an idempotent operator (f(f(x)) = f(x)) iterated more than once —
// the rounds after the first compute nothing new — and a
// divergence threshold the value ranges prove unreachable (the
// early-termination check would be evaluated every round and never fire).
func checkDegenIterate(e stepEvent) []Finding {
	var out []Finding
	it := e.Step.Iterate
	if it.Rounds == 1 {
		out = append(out, Finding{Rule: "degeniterate",
			Msg: fmt.Sprintf("iterate %q runs a single round: use a plain op step", it.Name)})
	}
	if it.Rounds > maxIterateRounds {
		out = append(out, Finding{Rule: "degeniterate",
			Msg: fmt.Sprintf("iterate %q unrolls %d rounds, above the maximum %d", it.Name, it.Rounds, maxIterateRounds)})
	}
	if it.Rounds > 1 {
		op := spec.Resolve(it.Op, e.Params)
		switch {
		case spec.Ops[op.Fn].Idempotent:
			out = append(out, Finding{Rule: "degeniterate",
				Msg: fmt.Sprintf("iterating idempotent op %q for %d rounds computes the same result as one round", op.Fn, it.Rounds)})
		case op.Fn == "affine" && op.A == 1 && op.B == 0:
			out = append(out, Finding{Rule: "degeniterate",
				Msg: fmt.Sprintf("iterating affine(1·x+0) for %d rounds is the identity", it.Rounds)})
		}
	}
	if it.DivergeAboveMeanAbs > 0 && e.IterStable && !e.Out.empty && !e.In.empty {
		if _, absHi := e.Out.abs(); absHi <= it.DivergeAboveMeanAbs {
			out = append(out, Finding{Rule: "degeniterate",
				Msg: fmt.Sprintf("divergence threshold %g can never fire: iterated values stay within %s (mean |x| <= %g)",
					it.DivergeAboveMeanAbs, e.Out, absHi)})
		}
	}
	return atPath(out, e.Path, ".iterate")
}

// checkEmptyFilter reports the filter whose event e carries ProvedEmpty —
// the first along its chain that provably drops every row, by the interval
// abstract interpretation: everything downstream of it computes on nothing.
func checkEmptyFilter(e stepEvent) Finding {
	op, suffix := e.Step.Op, ""
	if it := e.Step.Iterate; it != nil {
		op, suffix = &it.Op, ".iterate"
	}
	return Finding{Path: e.Path.format(suffix), Rule: "emptyfilter",
		Msg: fmt.Sprintf("filter %q (%s %g) statically drops every row: input values lie in %s",
			op.Name, op.Fn, spec.Resolve(*op, e.Params).Limit, e.In)}
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
