package engine

import (
	"fmt"
	"sort"

	"metadataflow/internal/dataset"
)

// This file is the engine's self-audit surface: read-only invariant checks
// the chaos harness (internal/chaos) runs after every trial. They are
// methods on Run rather than harness-side code because they need the
// engine's private bookkeeping (placement overrides, live-dataset table,
// choose sessions) to state the invariants precisely.

// ChooseSelections returns the selected branch indices of every choose
// stage that ran, keyed by the stage's display label and sorted ascending.
// Stage labels are derived from per-graph operator IDs, so two runs built
// from the same spec are directly comparable even though raw dataset IDs
// (process-global counters) differ between them. The chaos equivalence
// oracle compares this map between the golden and the faulted run.
func (r *Run) ChooseSelections() map[string][]int {
	out := make(map[string][]int)
	for _, st := range r.plan.Stages {
		if !st.IsChoose() {
			continue
		}
		cs := r.sessions[st.ID]
		if cs == nil {
			continue
		}
		sel := append([]int(nil), cs.session.Selected()...)
		sort.Ints(sel)
		out[st.String()] = sel
	}
	return out
}

// AuditLineage checks lineage closure over the allocators: every partition
// of every live dataset must be tracked at exactly the node the engine
// resolves it to (honouring rebalancing overrides), no partition may be
// duplicated on another node or stranded on a dead one, and no allocator
// may track a partition of a discarded dataset. Returns one message per
// violation, in deterministic order; nil means the books close.
func (r *Run) AuditLineage() []string {
	var out []string
	ids := make([]dataset.ID, 0, len(r.datasets))
	for id := range r.datasets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	expected := make(map[dataset.PartKey]int)
	for _, id := range ids {
		d := r.datasets[id]
		for i := range d.Parts {
			key := d.Key(i)
			home := r.nodeOf(key, i)
			expected[key] = home
			if !r.allocs[home].Known(key) {
				out = append(out, fmt.Sprintf("lost: partition %d of live dataset %q missing at its home node %d", i, d.Name, home))
			}
		}
	}
	for n, a := range r.allocs {
		for _, key := range a.Keys() {
			home, live := expected[key]
			switch {
			case !live:
				out = append(out, fmt.Sprintf("orphan: node %d tracks partition %d of discarded dataset %d", n, key.Index, key.Dataset))
			case home != n:
				out = append(out, fmt.Sprintf("duplicate: partition %d of dataset %d tracked at node %d but homed at node %d", key.Index, key.Dataset, n, home))
			}
		}
		if !r.opts.Cluster.Alive(n) && a.TrackedParts() > 0 {
			out = append(out, fmt.Sprintf("dead node %d still tracks %d partitions after evacuation", n, a.TrackedParts()))
		}
	}
	return out
}

// AuditAccounting checks allocator bookkeeping on every node: the resident
// byte counter must equal the sum of resident entry sizes and stay within
// the budget, and no partition may remain pinned once the run is over
// (every Pin matched by an Unpin or a Discard). Returns one message per
// violation; nil means the books balance.
func (r *Run) AuditAccounting() []string {
	var out []string
	for i, a := range r.allocs {
		if err := a.CheckAccounting(); err != nil {
			out = append(out, err.Error())
		}
		if n := a.PinnedParts(); n > 0 {
			out = append(out, fmt.Sprintf("node %d: %d partitions still pinned at end of run", i, n))
		}
	}
	return out
}
