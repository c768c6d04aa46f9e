// Package obs is the unified virtual-time telemetry layer of the runtime:
// a Probe interface threaded through the engine, scheduler, memory manager,
// cluster and fault layer, and a Recorder that materialises what the probes
// report into three artefacts:
//
//   - per-node task spans, rendered as a multi-track Chrome trace
//     (WriteChromeTrace) with one process per simulated node, one labelled
//     track per event kind, and counter tracks for resident bytes, spill
//     and checkpoint volume, and scheduler queue depth;
//   - a decision audit log (WriteDecisions) capturing each scheduling pick
//     with its Alg. 1 candidate scores and each AMM evict/checkpoint with
//     its Alg. 2 valuation;
//   - a metrics snapshot (Snapshot) of counters, gauges and histograms over
//     sim.VTime/sim.Bytes, serialised as schema-stable JSON.
//
// Everything is keyed by virtual time, never wall clock, and every
// collection is kept in deterministic (insertion or explicitly sorted)
// order, so running the same seed twice yields byte-identical artefacts.
// A nil Probe disables the layer: instrumented components guard every
// report behind a nil check, so an untraced run does no telemetry work.
//
// Dataset identity deserves a note: dataset.ID is a process-global counter,
// so raw IDs differ between two runs in the same process. Probes therefore
// never serialise IDs; the engine registers each dataset when it is
// produced (RegisterDataset) and the Recorder hands out run-local aliases
// ("name#seq") in registration order, which IS deterministic.
package obs

import (
	"slices"
	"strconv"
	"sync"

	"metadataflow/internal/sim"
)

// Kind classifies a span track. The engine emits the task kinds; the
// cluster's resource observer emits the resource kinds.
type Kind string

const (
	// KindStage is a regular stage task executing on a node.
	KindStage Kind = "stage"
	// KindEval is a worker-side choose-evaluator invocation.
	KindEval Kind = "eval"
	// KindChoose is the master-side selection of a choose stage.
	KindChoose Kind = "choose"
	// KindPruned marks a stage skipped as superfluous (instantaneous).
	KindPruned Kind = "pruned"
	// KindRecovery is failure-recovery work (lineage re-derivation,
	// checkpoint rebalancing).
	KindRecovery Kind = "recovery"
	// KindCPU, KindDisk and KindNet are resource-occupancy spans reported
	// by the cluster's node timelines.
	KindCPU  Kind = "cpu"
	KindDisk Kind = "disk"
	KindNet  Kind = "net"
)

// NodeMaster is the node index of master-side events: scheduling picks,
// choose selections, and the scheduler queue-depth counter.
const NodeMaster = -1

// SpanID identifies a span begun on a Probe, to be closed with SpanEnd.
type SpanID int

// Probe is the telemetry interface the runtime components report into.
// Implementations must tolerate events arriving in virtual-time order with
// equal timestamps (ordering ties are broken by call order, which the
// deterministic engine fixes). The zero-cost disabled state is a nil Probe
// at the call site: components guard with `if p != nil`.
type Probe interface {
	// SpanBegin opens a task span on a node track and returns its ID.
	SpanBegin(node int, kind Kind, name string, start sim.VTime) SpanID
	// SpanEnd closes a span begun earlier. Every SpanBegin must be paired
	// with a SpanEnd (the mdf lint leakcheck rule enforces the balance per
	// package, like Pin/Unpin).
	SpanEnd(id SpanID, end sim.VTime)
	// Counter records one sample of a per-node counter track.
	Counter(node int, name string, t sim.VTime, value float64)
	// Decision appends one entry to the decision audit log. A probe that
	// retains the entry copies d.Candidates: the slice stays the caller's.
	Decision(d Decision)
	// RegisterDataset associates a dataset's process-global ID with its
	// display name, so later Label calls can render a run-stable alias.
	// Repeated registration of the same ID is a no-op.
	RegisterDataset(id int64, name string)
	// Label renders a run-stable display label for partition part of the
	// registered dataset id.
	Label(id int64, part int) string

	// SeriesAdd adds a delta to a bucketed counter series (see series.go):
	// the per-bucket value is the sum of the deltas reported in the bucket.
	SeriesAdd(node int, name string, t sim.VTime, delta float64)
	// SeriesSet samples a gauge series: the per-bucket value is the last
	// value set in the bucket (call order, which the engine fixes).
	SeriesSet(node int, name string, t sim.VTime, value float64)
	// SeriesObserve adds one observation to a per-bucket log-bucketed
	// (HDR-style) histogram series.
	SeriesObserve(node int, name string, t sim.VTime, value float64)
	// IntervalBegin opens a named interval (a branch lifetime, a recovery
	// window) and returns its ID. Every IntervalBegin must be paired with an
	// IntervalEnd (the mdf lint leakcheck rule enforces the balance per
	// package, like SpanBegin/SpanEnd).
	IntervalBegin(node int, name string, start sim.VTime) SpanID
	// IntervalEnd closes an interval begun earlier.
	IntervalEnd(id SpanID, end sim.VTime)
}

// Span is one closed task span on a node track.
type Span struct {
	// Node is the worker index, or NodeMaster.
	Node int
	// Kind selects the track within the node's process.
	Kind Kind
	// Name labels the span (stage label, operator name, ...).
	Name string
	// Start and End bound the span in virtual time; equal for instants.
	Start, End sim.VTime
}

// CounterSample is one sample of a per-node counter track.
type CounterSample struct {
	// Node is the worker index, or NodeMaster.
	Node int
	// Name is the counter track name (e.g. "mem.resident_bytes").
	Name string
	// T is the sample's virtual time.
	T sim.VTime
	// Value is the sampled value.
	Value float64
}

// Candidate is one scored option of a Decision.
type Candidate struct {
	// Label identifies the candidate (stage label, partition alias).
	Label string
	// Score is the value the decision ranked the candidate by: the
	// scheduling hint for BAS picks, the evaluator score for choose
	// selections, the Alg. 2 preference acc·δ·α for AMM evictions.
	Score float64
	// Chosen marks the candidate(s) the decision selected.
	Chosen bool
}

// Decision is one entry of the decision audit log.
type Decision struct {
	// T is the decision's virtual time.
	T sim.VTime
	// Node is the worker the decision concerns, or NodeMaster.
	Node int
	// Component names the deciding layer: "scheduler", "engine",
	// "memorymgr" or "faults".
	Component string
	// Kind names the decision: "pick", "choose", "evict", "checkpoint",
	// "crash", "retry", "rederive", "rebalance", "quarantine".
	Kind string
	// Subject is what was decided about (the chosen stage, the victim
	// partition, the crashed node).
	Subject string
	// Detail is free-form context (trigger, policy, byte volumes).
	Detail string
	// Candidates are the scored options the decision weighed, in
	// evaluation order; empty when the decision had no alternatives.
	Candidates []Candidate
}

// Recorder is the materialising Probe: it retains every span, counter
// sample and decision in call order. A mutex makes concurrent reporters
// safe (parallel baseline jobs may share one recorder); within one engine
// run all calls arrive from a single goroutine in deterministic order.
//
// The per-event methods are the engine's step loop's cost of being observed,
// so each is one locked append and nothing else: no formatting, no map
// write, no allocation once Reserve has sized the slices. Everything
// derived — aliases' text, the series document, trace tracks — is computed
// by the reader that asks for it.
type Recorder struct {
	mu        sync.Mutex
	spans     []Span
	counters  []CounterSample
	decisions []Decision
	series    []seriesSample
	intervals []Interval

	// candidates is the arena the decisions' candidate lists are copied
	// into: one allocation per chunk instead of one per decision. A full
	// chunk is left to the decisions that point into it and a new one
	// started; nothing is ever moved.
	candidates []Candidate

	// aliasOf maps a registered dataset ID to its position in aliases,
	// which is registration order; the alias text is "name#<position+1>".
	aliasOf map[int64]int32
	aliases []datasetAlias
}

// datasetAlias is one registered dataset. text is the alias, formatted the
// first time a Label asks for it: most datasets are never evicted,
// checkpointed or lost, and so never named.
type datasetAlias struct {
	name string
	text string
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{aliasOf: make(map[int64]int32)}
}

var _ Probe = (*Recorder)(nil)

// What a run reports grows with its plan: per stage and node about five spans
// (a task span, two or three resource occupations under it, a share of the
// evaluator's) and one or two counter samples; per stage three or four
// series samples and one or two decisions of one or two candidates, more
// under memory pressure. Reserve sizes the slices by these; a run that
// reports more grows them as any append does.
const (
	spansPerStageNode    = 6
	countersPerStageNode = 2
	seriesPerStage       = 4
	decisionsPerStage    = 2
	candidatesPerStage   = 2
)

// Reserve sizes the recorder for one run of a plan of the given number of
// stages on the given number of nodes, so that the run's reports append into
// room that is already there. The engine calls it from NewRun; it never
// shrinks and loses nothing already recorded.
func (r *Recorder) Reserve(stages, nodes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = slices.Grow(r.spans, spansPerStageNode*stages*nodes)
	r.counters = slices.Grow(r.counters, countersPerStageNode*stages*nodes)
	r.series = slices.Grow(r.series, seriesPerStage*stages)
	r.decisions = slices.Grow(r.decisions, decisionsPerStage*stages)
	r.candidates = slices.Grow(r.candidates, candidatesPerStage*stages)
	r.aliases = slices.Grow(r.aliases, stages)
}

// SpanBegin implements Probe.
func (r *Recorder) SpanBegin(node int, kind Kind, name string, start sim.VTime) SpanID {
	r.mu.Lock()
	id := SpanID(len(r.spans))
	r.spans = append(r.spans, Span{Node: node, Kind: kind, Name: name, Start: start, End: start})
	r.mu.Unlock()
	return id
}

// SpanEnd implements Probe.
func (r *Recorder) SpanEnd(id SpanID, end sim.VTime) {
	r.mu.Lock()
	if int(id) >= 0 && int(id) < len(r.spans) && end > r.spans[id].End {
		r.spans[id].End = end
	}
	r.mu.Unlock()
}

// Counter implements Probe.
func (r *Recorder) Counter(node int, name string, t sim.VTime, value float64) {
	r.mu.Lock()
	r.counters = append(r.counters, CounterSample{Node: node, Name: name, T: t, Value: value})
	r.mu.Unlock()
}

// minCandidateChunk is the smallest candidate arena chunk.
const minCandidateChunk = 64

// Decision implements Probe. The candidate list is copied, so the caller may
// build the next decision's in the same slice.
func (r *Recorder) Decision(d Decision) {
	r.mu.Lock()
	if n := len(d.Candidates); n > 0 {
		if cap(r.candidates)-len(r.candidates) < n {
			r.candidates = make([]Candidate, 0, max(n, 2*cap(r.candidates), minCandidateChunk))
		}
		at := len(r.candidates)
		r.candidates = append(r.candidates, d.Candidates...)
		// The full slice expression keeps a reader's append off the next
		// decision's candidates.
		d.Candidates = r.candidates[at : at+n : at+n]
	}
	r.decisions = append(r.decisions, d)
	r.mu.Unlock()
}

// RegisterDataset implements Probe: the first registration of an ID assigns
// the next run-local alias, "name#seq". Registration order is the engine's
// deterministic production order, so aliases are stable across runs even
// though raw dataset IDs are not.
func (r *Recorder) RegisterDataset(id int64, name string) {
	r.mu.Lock()
	if _, ok := r.aliasOf[id]; !ok {
		r.aliasOf[id] = int32(len(r.aliases))
		r.aliases = append(r.aliases, datasetAlias{name: name})
	}
	r.mu.Unlock()
}

// Label implements Probe: "alias/p<part>", or a fixed placeholder for
// unregistered datasets (never the raw ID, which is not run-stable).
func (r *Recorder) Label(id int64, part int) string {
	r.mu.Lock()
	alias := "unregistered"
	if i, ok := r.aliasOf[id]; ok {
		a := &r.aliases[i]
		if a.text == "" {
			a.text = a.name + "#" + strconv.Itoa(int(i)+1)
		}
		alias = a.text
	}
	r.mu.Unlock()
	return alias + "/p" + strconv.Itoa(part)
}

// sample appends one explicit series report.
func (r *Recorder) sample(node int, name string, op seriesOp, t sim.VTime, v float64) {
	r.mu.Lock()
	r.series = append(r.series, seriesSample{node: node, name: name, op: op, t: t, v: v})
	r.mu.Unlock()
}

// SeriesAdd implements Probe.
func (r *Recorder) SeriesAdd(node int, name string, t sim.VTime, delta float64) {
	r.sample(node, name, opAdd, t, delta)
}

// SeriesSet implements Probe.
func (r *Recorder) SeriesSet(node int, name string, t sim.VTime, value float64) {
	r.sample(node, name, opSet, t, value)
}

// SeriesObserve implements Probe.
func (r *Recorder) SeriesObserve(node int, name string, t sim.VTime, value float64) {
	r.sample(node, name, opObserve, t, value)
}

// IntervalBegin implements Probe.
func (r *Recorder) IntervalBegin(node int, name string, start sim.VTime) SpanID {
	r.mu.Lock()
	id := SpanID(len(r.intervals))
	r.intervals = append(r.intervals, Interval{Node: node, Name: name, Start: start, End: start})
	r.mu.Unlock()
	return id
}

// IntervalEnd implements Probe.
func (r *Recorder) IntervalEnd(id SpanID, end sim.VTime) {
	r.mu.Lock()
	if int(id) >= 0 && int(id) < len(r.intervals) && end > r.intervals[id].End {
		r.intervals[id].End = end
	}
	r.mu.Unlock()
}

// Intervals returns a copy of the recorded intervals in begin order.
func (r *Recorder) Intervals() []Interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Interval(nil), r.intervals...)
}

// ResourceBusy implements the cluster's resource Observer: each occupation
// of a node's CPU, disk or network timeline becomes a span on that node's
// matching resource track — a span begun and ended in one append.
func (r *Recorder) ResourceBusy(node int, resource string, start, end sim.VTime) {
	sp := Span{Node: node, Kind: Kind(resource), Name: resource, Start: start, End: start}
	if end > start {
		sp.End = end
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans in call order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// CounterSamples returns a copy of the recorded counter samples in call
// order.
func (r *Recorder) CounterSamples() []CounterSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CounterSample(nil), r.counters...)
}

// Decisions returns a copy of the decision audit log in call order.
func (r *Recorder) Decisions() []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Decision(nil), r.decisions...)
}
