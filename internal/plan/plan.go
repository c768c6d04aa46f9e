// Package plan statically verifies parsed MDF specs before they run: it
// proves a job degenerate, dead, or inadmissible from the plan alone,
// without executing a single operator. It is the plan-level sibling of
// internal/analysis (which vets the repo's Go source): the same battery
// shape — named rules, findings, allow escapes, stale-allow auditing — but
// the subject is a spec document instead of a syntax tree.
//
// The battery (see Rules):
//
//   - compile: the spec must compile to a valid executable graph;
//   - dupbranch: two branches of one explore whose resolved sub-graph
//     hashes collide compute the same result — one of them is wasted work;
//   - deadchoose: a choose that cannot discard anything (selector keeps
//     every branch, evaluator scores all branches identically) or cannot
//     keep anything (selector range disjoint from the evaluator's);
//   - degeniterate: single-round or over-long iterations, iterating an
//     idempotent operator, divergence thresholds that can never fire;
//   - emptyfilter: filter chains that provably drop every row, via interval
//     abstract interpretation from the source distribution down;
//   - memfeasible: partitions so large they provably bypass memory straight
//     to disk, and admission reservations that can never fit the tenant
//     quota — jobs that run with caching defeated or are never admitted.
//
// Findings are suppressed per-rule with the spec's top-level "allow" array
// (the JSON analogue of mdf lint's //lint:allow comments — JSON has no
// comments, so the escape is a metadata field, excluded from the content
// hash). An allow entry that suppresses nothing is reported as stale so it
// is deleted before it hides a real defect.
//
// The rules are deliberately sound-but-incomplete: a finding is a proof of
// the defect (no false positives from the abstractions used), while a clean
// pass proves nothing. That is the right polarity for an admission gate —
// mdf serve rejects on findings before reserving quota, so a false positive
// would block a legitimate job.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"metadataflow/internal/cluster"
	"metadataflow/internal/graph"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// Finding is one verifier diagnostic, anchored at a spec path such as
// "pipeline[1].explore.branch[2]" rather than a file position.
type Finding struct {
	// Path locates the defect in the spec document (HashReport path syntax).
	Path string `json:"path"`
	// Rule names the rule that fired (one of Rules()).
	Rule string `json:"rule"`
	// Msg explains the defect and, where possible, the values that prove it.
	Msg string `json:"msg"`
}

// String renders the finding in the `path: [rule] msg` shape mdf lint uses
// for `file:line: [rule] msg`.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Path, f.Rule, f.Msg)
}

// StaleAllow reports an "allow" entry that suppressed nothing.
type StaleAllow struct {
	// Rule is the allow entry (a rule name, or an unknown string).
	Rule string `json:"rule"`
}

// String implements the stale-allow diagnostic line.
func (s StaleAllow) String() string {
	return fmt.Sprintf("allow: [%s] suppresses nothing; delete it", s.Rule)
}

// Config parameterises a verification run. The memory fields describe the
// environment the job would run in; they default to the engine's defaults
// and are overridden by the service with its own admission configuration.
type Config struct {
	// Rules selects a subset of Rules(); empty means all.
	Rules []string
	// Workers and MemPerWorker describe the cluster the job would occupy:
	// Workers × MemPerWorker is the admission reservation, MemPerWorker the
	// AMM budget a stage's working set must fit (memfeasible).
	Workers      int
	MemPerWorker sim.Bytes
	// TenantQuota is the per-tenant admission quota; 0 disables the
	// quota-feasibility checks.
	TenantQuota sim.Bytes
}

// DefaultConfig is the engine's default cluster shape
// (cluster.DefaultConfig: 8 workers, 10 GiB per worker) with quota checking
// off.
func DefaultConfig() Config {
	cl := cluster.DefaultConfig()
	return Config{Workers: cl.Workers, MemPerWorker: cl.MemPerWorker}
}

// maxIterateRounds bounds IterateStep.Rounds (degeniterate).
const maxIterateRounds = 10000

// Rules lists the battery in execution order.
func Rules() []string {
	return []string{"compile", "dupbranch", "deadchoose", "degeniterate", "emptyfilter", "memfeasible"}
}

// Result is the outcome of one verification run.
type Result struct {
	// Findings are the surviving diagnostics, in rule-then-document order.
	Findings []Finding `json:"findings"`
	// StaleAllows lists allow entries that suppressed nothing.
	StaleAllows []StaleAllow `json:"staleAllows,omitempty"`

	// Normalized, Graph and Hashes are what the battery built on its way,
	// handed over so that a caller who goes on to run the spec builds none of
	// them again: the normalised spec every rule read, the graph the compile
	// rule compiled from it (nil when the rule is off or the spec does not
	// compile) and the hash report the dupbranch rule read (nil when the rule
	// is off). None is part of the serialized result.
	Normalized *spec.Spec       `json:"-"`
	Graph      *graph.Graph     `json:"-"`
	Hashes     *spec.HashReport `json:"-"`
}

// Verify runs the configured rule battery over a parsed spec. The spec's
// "allow" list suppresses findings per rule; suppression is recorded so
// unused entries surface in Result.StaleAllows.
//
// Each thing is done once: one normalisation, which the compilation, the
// content hash and the interval walk all read; one compilation; one
// interval walk of the pipeline, feeding deadchoose, degeniterate and
// emptyfilter together.
func Verify(s *spec.Spec, cfg Config) (*Result, error) {
	enabled, err := enabledRules(cfg.Rules)
	if err != nil {
		return nil, err
	}
	n := s.Normalized()
	res := &Result{Normalized: n}
	found := make(map[string][]Finding, len(enabled))
	if enabled["compile"] {
		err := s.Validate()
		var g *graph.Graph
		if err == nil {
			g, err = spec.CompileNormalized(n)
		}
		if err != nil {
			// Parse already validates structure, so a failure here is a
			// graph-level defect (and everything the later rules assume about
			// the plan holds once this passes).
			found["compile"] = []Finding{{Path: "spec", Rule: "compile", Msg: err.Error()}}
		}
		res.Graph = g
	}
	if enabled["dupbranch"] {
		res.Hashes = spec.HashNormalized(n)
		found["dupbranch"] = checkDupBranch(res.Hashes)
	}
	if dead, degen, empty := enabled["deadchoose"], enabled["degeniterate"], enabled["emptyfilter"]; dead || degen || empty {
		var deads, degens, empties []Finding
		walkPipeline(n, func(e stepEvent) {
			switch {
			case e.Step.Explore != nil && dead:
				deads = append(deads, checkDeadChoose(e)...)
			case e.Step.Iterate != nil && degen:
				degens = append(degens, checkDegenIterate(e)...)
			}
			if e.ProvedEmpty && empty {
				empties = append(empties, checkEmptyFilter(e))
			}
		})
		found["deadchoose"], found["degeniterate"], found["emptyfilter"] = deads, degens, empties
	}
	if enabled["memfeasible"] {
		found["memfeasible"] = checkMemFeasible(n, cfg)
	}

	allowed := make(map[string]bool, len(s.Allow))
	for _, a := range s.Allow {
		allowed[a] = false // false = not yet used
	}
	for _, rule := range Rules() {
		if _, ok := allowed[rule]; ok && len(found[rule]) > 0 {
			allowed[rule] = true
			continue
		}
		res.Findings = append(res.Findings, found[rule]...)
	}
	stale := make([]string, 0, len(allowed))
	for rule, used := range allowed {
		if !used {
			stale = append(stale, rule)
		}
	}
	sort.Strings(stale)
	for _, rule := range stale {
		res.StaleAllows = append(res.StaleAllows, StaleAllow{Rule: rule})
	}
	return res, nil
}

// enabledRules resolves a rule subset, rejecting unknown names so a typo
// like "dupbrach" fails loudly instead of silently vetting nothing.
func enabledRules(subset []string) (map[string]bool, error) {
	known := make(map[string]bool, len(Rules()))
	for _, r := range Rules() {
		known[r] = true
	}
	if len(subset) == 0 {
		return known, nil
	}
	enabled := make(map[string]bool, len(subset))
	for _, r := range subset {
		if !known[r] {
			return nil, fmt.Errorf("plan: unknown rule %q (valid: %s)", r, strings.Join(Rules(), ", "))
		}
		enabled[r] = true
	}
	return enabled, nil
}

// fmtBytes renders simulated byte counts in the unit that keeps the number
// readable, for finding messages.
func fmtBytes(b sim.Bytes) string {
	switch {
	case b >= 1<<40 && b%(1<<40) == 0:
		return fmt.Sprintf("%dTiB", b>>40)
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1e9 && b%1e9 == 0:
		return fmt.Sprintf("%dGB", b/1e9)
	case b >= 1e6 && b%1e6 == 0:
		return fmt.Sprintf("%dMB", b/1e6)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", b>>10)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}
