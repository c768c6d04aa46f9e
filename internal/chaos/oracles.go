package chaos

import (
	"fmt"
	"sort"
	"strings"

	"metadataflow/internal/faults"
	"metadataflow/internal/sim"
)

// Oracle names, usable in the -oracle filter (comma-separated).
const (
	// OracleRunFailure fires when either run terminates with an error: a
	// valid generated trial must always complete, faults or not.
	OracleRunFailure = "run-failure"
	// OracleEquivalence fires when the faulted run's choose selections or
	// output partition checksums differ from the golden run's. Skipped when
	// the faulted run quarantined branches (a quarantine legitimately
	// changes the selection).
	OracleEquivalence = "equivalence"
	// OracleLineage fires on lineage-closure violations: a live partition
	// lost, duplicated, stranded on a dead node, or orphaned after
	// crash recovery and rebalancing.
	OracleLineage = "lineage"
	// OracleAccounting fires on allocator-accounting violations: resident
	// bytes exceeding the budget (per sample or at end), used/resident
	// drift or unbalanced pins — all checked through the mdf.metrics/v1
	// snapshot and the probe stream.
	OracleAccounting = "accounting"
	// OracleVTime fires on virtual-time violations: a non-positive
	// completion or a span ending before it starts.
	OracleVTime = "vtime"
	// OracleOverhead fires when the faulted completion time falls outside
	// the bounded-recovery envelope derived from the golden completion and
	// the fault plan.
	OracleOverhead = "overhead"
)

// AllOracles lists every oracle name.
var AllOracles = []string{
	OracleRunFailure, OracleEquivalence, OracleLineage,
	OracleAccounting, OracleVTime, OracleOverhead,
}

// Violation is one oracle failure.
type Violation struct {
	// Oracle is the failing oracle's name.
	Oracle string `json:"oracle"`
	// Detail states the observed vs. expected facts.
	Detail string `json:"detail"`
}

// parseFilter resolves the comma-separated oracle filter; empty selects all.
func parseFilter(filter string) (map[string]bool, error) {
	enabled := make(map[string]bool, len(AllOracles))
	if strings.TrimSpace(filter) == "" {
		for _, name := range AllOracles {
			enabled[name] = true
		}
		return enabled, nil
	}
	known := make(map[string]bool, len(AllOracles))
	for _, name := range AllOracles {
		known[name] = true
	}
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("chaos: unknown oracle %q (want %s)", name, strings.Join(AllOracles, ", "))
		}
		enabled[name] = true
	}
	return enabled, nil
}

// ValidateFilter reports whether filter names only known oracles.
func ValidateFilter(filter string) error {
	_, err := parseFilter(filter)
	return err
}

// CheckOracles applies the oracle battery to a golden/faulted outcome pair
// and returns the violations in a deterministic order. filter selects a
// comma-separated subset of oracle names; empty means all. An unknown
// oracle name is itself reported as a violation rather than silently
// checking nothing.
func CheckOracles(spec *TrialSpec, golden, faulted *Outcome, filter string) []Violation {
	enabled, err := parseFilter(filter)
	if err != nil {
		return []Violation{{Oracle: OracleRunFailure, Detail: err.Error()}}
	}
	var out []Violation
	report := func(oracle, format string, args ...any) {
		out = append(out, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
	}

	if enabled[OracleRunFailure] {
		if golden.Err != nil {
			report(OracleRunFailure, "golden run failed: %v", golden.Err)
		}
		if faulted.Err != nil {
			report(OracleRunFailure, "faulted run failed: %v", faulted.Err)
		}
	}
	if golden.Err != nil || faulted.Err != nil {
		// The remaining oracles compare completed runs.
		return out
	}

	if enabled[OracleEquivalence] && faulted.Quarantined == 0 {
		checkEquivalence(golden, faulted, report)
	}

	if enabled[OracleLineage] {
		for _, v := range golden.Lineage {
			report(OracleLineage, "golden: %s", v)
		}
		for _, v := range faulted.Lineage {
			report(OracleLineage, "faulted: %s", v)
		}
	}

	if enabled[OracleAccounting] {
		checkAccounting(golden, faulted, report)
	}

	if enabled[OracleVTime] {
		checkVTime(golden, faulted, report)
	}

	if enabled[OracleOverhead] {
		checkOverhead(spec, golden, faulted, report)
	}
	return out
}

// checkEquivalence compares choose selections and output checksums between
// the golden and the faulted run. Operator functions compute over real
// in-process data that fault simulation never touches, so a recovered run
// must reproduce the golden decisions and bytes exactly.
func checkEquivalence(golden, faulted *Outcome, report func(string, string, ...any)) {
	labels := make(map[string]bool, len(golden.Selections)+len(faulted.Selections))
	for l := range golden.Selections {
		labels[l] = true
	}
	for l := range faulted.Selections {
		labels[l] = true
	}
	sorted := make([]string, 0, len(labels))
	for l := range labels {
		sorted = append(sorted, l)
	}
	sort.Strings(sorted)
	for _, l := range sorted {
		g, gok := golden.Selections[l]
		f, fok := faulted.Selections[l]
		if gok != fok || !equalInts(g, f) {
			report(OracleEquivalence, "choose %s selected %v in golden but %v in faulted", l, g, f)
		}
	}
	if len(golden.Checksums) != len(faulted.Checksums) {
		report(OracleEquivalence, "output has %d partitions in golden but %d in faulted",
			len(golden.Checksums), len(faulted.Checksums))
		return
	}
	for i := range golden.Checksums {
		if golden.Checksums[i] != faulted.Checksums[i] {
			report(OracleEquivalence, "output partition %d checksum %016x in golden but %016x in faulted",
				i, golden.Checksums[i], faulted.Checksums[i])
		}
	}
}

// checkAccounting audits allocator bookkeeping on both runs, partly through
// the mdf.metrics/v1 snapshot (pinned partitions, peak residency) and partly
// through the engine's self-audit and the probe stream (per-sample
// residency).
func checkAccounting(golden, faulted *Outcome, report func(string, string, ...any)) {
	for _, v := range golden.Accounting {
		report(OracleAccounting, "golden: %s", v)
	}
	for _, v := range faulted.Accounting {
		report(OracleAccounting, "faulted: %s", v)
	}
	for _, o := range []struct {
		name string
		out  *Outcome
	}{{"golden", golden}, {"faulted", faulted}} {
		if o.out.Snapshot == nil {
			report(OracleAccounting, "%s: no metrics snapshot", o.name)
			continue
		}
		if v, ok := o.out.Snapshot.CounterValue("mem.pinned_partitions"); !ok || v != 0 {
			report(OracleAccounting, "%s: mem.pinned_partitions = %d at end of run, want 0", o.name, v)
		}
		for _, n := range o.out.Snapshot.Nodes {
			if n.ResidentBytes > n.CapacityBytes {
				report(OracleAccounting, "%s: node %d resident %d bytes exceed the %d-byte budget",
					o.name, n.ID, n.ResidentBytes, n.CapacityBytes)
			}
		}
	}
	for _, v := range faulted.ResidentOver {
		report(OracleAccounting, "faulted: %s", v)
	}
}

// checkVTime audits virtual-time sanity on both runs.
func checkVTime(golden, faulted *Outcome, report func(string, string, ...any)) {
	if golden.Completion <= 0 {
		report(OracleVTime, "golden completion %.3fs is not positive", golden.Completion.Seconds())
	}
	if faulted.Completion <= 0 {
		report(OracleVTime, "faulted completion %.3fs is not positive", faulted.Completion.Seconds())
	}
	if faulted.NegativeSpans > 0 {
		report(OracleVTime, "faulted: %d spans end before they start", faulted.NegativeSpans)
	}
}

// checkOverhead bounds the faulted completion time by an envelope derived
// from the golden run and the fault plan. Slowdown/disk windows and panic
// retries strictly add time, so for crash-free plans the faulted run cannot
// finish meaningfully earlier than golden (a small tolerance absorbs
// eviction-order perturbation). Crashes void that lower bound: re-derived
// partitions come back freshly resident and rebalanced, which can rewarm a
// thrashing near-OOM cache and legitimately beat the golden run. The upper
// bound always applies: recovery cost is bounded by re-running everything
// once per crash under the worst combined slowdown plus the full retry
// backoff budget.
func checkOverhead(spec *TrialSpec, golden, faulted *Outcome, report func(string, string, ...any)) {
	plan := spec.Faults
	if plan == nil {
		return
	}
	g := golden.Completion.Seconds()
	f := faulted.Completion.Seconds()
	tol := 0.01 * g
	if tol < 1 {
		tol = 1
	}
	// A quarantined branch legitimately sheds its remaining stages, so the
	// lower bound only applies to crash-free, fully recovered runs.
	if len(plan.Crashes) == 0 && faulted.Quarantined == 0 && f < g-tol {
		report(OracleOverhead, "faulted run finished at %.3fs, before golden %.3fs minus tolerance %.3fs", f, g, tol)
	}
	factor := 1.0
	for _, w := range plan.Slowdowns {
		factor *= w.Factor
	}
	for _, w := range plan.DiskFaults {
		factor *= w.Factor
	}
	bound := g*factor*float64(1+2*len(plan.Crashes)) + backoffBudget(plan) + g + 10
	if f > bound {
		report(OracleOverhead, "faulted run took %.3fs, beyond the recovery envelope %.3fs (golden %.3fs)", f, bound, g)
	}
}

// backoffBudget is the total virtual backoff the plan's panics can charge.
func backoffBudget(plan *faults.Plan) float64 {
	retry := faults.DefaultRetry()
	var total sim.VTime
	for _, p := range plan.Panics {
		times := p.Times
		if times > retry.MaxAttempts {
			times = retry.MaxAttempts
		}
		for attempt := 1; attempt <= times; attempt++ {
			total += sim.VTime(retry.Backoff(attempt))
		}
	}
	return total.Seconds()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
