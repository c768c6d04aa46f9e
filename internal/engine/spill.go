package engine

import (
	"fmt"
	"sort"

	"metadataflow/internal/dataset"
	"metadataflow/internal/sim"
)

// SpillEntry reports the spill volume attributed to one dataset.
type SpillEntry struct {
	Dataset dataset.ID
	Bytes   sim.Bytes
}

// SpillReport aggregates per-dataset spill volumes across the run's
// allocators and returns the top offenders, largest first — the datasets a
// user would pin or restructure around.
func (r *Run) SpillReport(top int) []SpillEntry {
	byDataset := map[dataset.ID]sim.Bytes{}
	for _, a := range r.allocs {
		for id, bytes := range a.SpilledByDataset() {
			byDataset[id] += bytes
		}
	}
	out := make([]SpillEntry, 0, len(byDataset))
	for id, b := range byDataset {
		out = append(out, SpillEntry{Dataset: id, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Dataset < out[j].Dataset
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// String implements fmt.Stringer.
func (e SpillEntry) String() string {
	return fmt.Sprintf("dataset %d: %d bytes spilled", e.Dataset, e.Bytes)
}
