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
	"fmt"
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
	// with a SpanEnd (the mdflint leakcheck rule enforces the balance per
	// package, like Pin/Unpin).
	SpanEnd(id SpanID, end sim.VTime)
	// Counter records one sample of a per-node counter track.
	Counter(node int, name string, t sim.VTime, value float64)
	// Decision appends one entry to the decision audit log.
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
	// IntervalEnd (the mdflint leakcheck rule enforces the balance per
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
type Recorder struct {
	mu        sync.Mutex
	spans     []Span
	counters  []CounterSample
	decisions []Decision
	series    []seriesSample
	intervals []Interval

	aliasOf map[int64]string
	aliases int
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{aliasOf: make(map[int64]string)}
}

var _ Probe = (*Recorder)(nil)

// SpanBegin implements Probe.
func (r *Recorder) SpanBegin(node int, kind Kind, name string, start sim.VTime) SpanID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Node: node, Kind: kind, Name: name, Start: start, End: start})
	return SpanID(len(r.spans) - 1)
}

// SpanEnd implements Probe.
func (r *Recorder) SpanEnd(id SpanID, end sim.VTime) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) < 0 || int(id) >= len(r.spans) {
		return
	}
	if end > r.spans[id].End {
		r.spans[id].End = end
	}
}

// Counter implements Probe.
func (r *Recorder) Counter(node int, name string, t sim.VTime, value float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = append(r.counters, CounterSample{Node: node, Name: name, T: t, Value: value})
}

// Decision implements Probe.
func (r *Recorder) Decision(d Decision) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.decisions = append(r.decisions, d)
}

// RegisterDataset implements Probe: the first registration of an ID assigns
// the next run-local alias, "name#seq". Registration order is the engine's
// deterministic production order, so aliases are stable across runs even
// though raw dataset IDs are not.
func (r *Recorder) RegisterDataset(id int64, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.aliasOf[id]; ok {
		return
	}
	r.aliases++
	r.aliasOf[id] = fmt.Sprintf("%s#%d", name, r.aliases)
}

// Label implements Probe: "alias/p<part>", or a fixed placeholder for
// unregistered datasets (never the raw ID, which is not run-stable).
func (r *Recorder) Label(id int64, part int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	alias, ok := r.aliasOf[id]
	if !ok {
		alias = "unregistered"
	}
	return fmt.Sprintf("%s/p%d", alias, part)
}

// SeriesAdd implements Probe.
func (r *Recorder) SeriesAdd(node int, name string, t sim.VTime, delta float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series = append(r.series, seriesSample{node: node, name: name, op: opAdd, t: t, v: delta})
}

// SeriesSet implements Probe.
func (r *Recorder) SeriesSet(node int, name string, t sim.VTime, value float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series = append(r.series, seriesSample{node: node, name: name, op: opSet, t: t, v: value})
}

// SeriesObserve implements Probe.
func (r *Recorder) SeriesObserve(node int, name string, t sim.VTime, value float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series = append(r.series, seriesSample{node: node, name: name, op: opObserve, t: t, v: value})
}

// IntervalBegin implements Probe.
func (r *Recorder) IntervalBegin(node int, name string, start sim.VTime) SpanID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.intervals = append(r.intervals, Interval{Node: node, Name: name, Start: start, End: start})
	return SpanID(len(r.intervals) - 1)
}

// IntervalEnd implements Probe.
func (r *Recorder) IntervalEnd(id SpanID, end sim.VTime) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) < 0 || int(id) >= len(r.intervals) {
		return
	}
	if end > r.intervals[id].End {
		r.intervals[id].End = end
	}
}

// Intervals returns a copy of the recorded intervals in begin order.
func (r *Recorder) Intervals() []Interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Interval(nil), r.intervals...)
}

// ResourceBusy implements the cluster's resource Observer: each occupation
// of a node's CPU, disk or network timeline becomes a span on that node's
// matching resource track.
func (r *Recorder) ResourceBusy(node int, resource string, start, end sim.VTime) {
	id := r.SpanBegin(node, Kind(resource), resource, start)
	r.SpanEnd(id, end)
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
