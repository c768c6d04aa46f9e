package obs

import (
	"encoding/json"
	"io"
	"sort"

	"metadataflow/internal/sim"
)

// This file defines the metrics snapshot: a point-in-time aggregation of
// counters, gauges, histograms and per-node memory-manager state, taken at
// the end of a run and serialized as schema-stable JSON (mdf run -metrics).
// The schema is pinned by tests: field names and ordering never change
// within a schema version, and Normalize sorts every collection so the
// serialized bytes are byte-identical across runs of the same seed.

// SnapshotSchema is the current snapshot schema identifier.
const SnapshotSchema = "mdf.metrics/v1"

// Count is one monotonic counter of the snapshot.
type Count struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Stat is one gauge (a point-in-time float measurement).
type Stat struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Bucket is one non-cumulative histogram bucket: the count of observations
// v with prevLe < v <= Le.
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Histogram is a fixed-bound histogram over float observations. Overflow
// counts observations beyond the last bucket bound (kept out of Buckets so
// no bound is +Inf, which JSON cannot represent).
type Histogram struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Buckets  []Bucket `json:"buckets"`
	Overflow int64    `json:"overflow"`
}

// NewHistogram returns an empty histogram with the given ascending bucket
// bounds.
func NewHistogram(name, unit string, bounds []float64) *Histogram {
	h := &Histogram{Name: name, Unit: unit, Buckets: make([]Bucket, len(bounds))}
	for i, le := range bounds {
		h.Buckets[i].Le = le
	}
	return h
}

// Observe adds one observation.
func (h *Histogram) Observe(v float64) {
	h.Count++
	h.Sum += v
	for i := range h.Buckets {
		if v <= h.Buckets[i].Le {
			h.Buckets[i].Count++
			return
		}
	}
	h.Overflow++
}

// NodeSnapshot is the end-of-run memory-manager state of one worker.
type NodeSnapshot struct {
	ID    int  `json:"id"`
	Alive bool `json:"alive"`
	// ResidentBytes and CapacityBytes describe memory occupancy;
	// SpilledBytes and CheckpointedBytes are cumulative disk volumes.
	ResidentBytes     sim.Bytes `json:"resident_bytes"`
	CapacityBytes     sim.Bytes `json:"capacity_bytes"`
	SpilledBytes      sim.Bytes `json:"spilled_bytes"`
	CheckpointedBytes sim.Bytes `json:"checkpointed_bytes"`
	Hits              int64     `json:"hits"`
	Misses            int64     `json:"misses"`
	Evictions         int64     `json:"evictions"`
	Checkpoints       int64     `json:"checkpoints"`
}

// FaultEvent is one injected fault, copied from the injector's history so
// snapshot consumers need not import the fault layer.
type FaultEvent struct {
	// Kind is "crash", "slowdown", "diskfault" or "panic".
	Kind string `json:"kind"`
	// Node is the afflicted worker.
	Node int `json:"node"`
	// Op names the operator a panic was injected into; empty otherwise.
	Op string `json:"op,omitempty"`
	// Detail is free-form context (permanence, slow factors, stage).
	Detail string `json:"detail,omitempty"`
}

// Snapshot is the end-of-run metrics document.
type Snapshot struct {
	Schema string `json:"schema"`
	// CompletionSec is the job's virtual makespan.
	CompletionSec sim.VTime      `json:"completion_sec"`
	Counters      []Count        `json:"counters"`
	Gauges        []Stat         `json:"gauges"`
	Histograms    []Histogram    `json:"histograms"`
	Nodes         []NodeSnapshot `json:"nodes"`
	Faults        []FaultEvent   `json:"faults"`
}

// NewSnapshot returns an empty snapshot carrying the current schema id.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Schema:     SnapshotSchema,
		Counters:   []Count{},
		Gauges:     []Stat{},
		Histograms: []Histogram{},
		Nodes:      []NodeSnapshot{},
		Faults:     []FaultEvent{},
	}
}

// AddCounter appends a counter.
func (s *Snapshot) AddCounter(name string, value int64) {
	s.Counters = append(s.Counters, Count{Name: name, Value: value})
}

// AddGauge appends a gauge.
func (s *Snapshot) AddGauge(name string, value float64) {
	s.Gauges = append(s.Gauges, Stat{Name: name, Value: value})
}

// CounterValue returns the named counter's value, or false if absent.
func (s *Snapshot) CounterValue(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Normalize sorts every collection into its canonical order (names
// ascending, nodes by id; fault events keep injection order). Serializing
// a normalized snapshot of a deterministic run is byte-identical across
// runs.
func (s *Snapshot) Normalize() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Nodes, func(i, j int) bool { return s.Nodes[i].ID < s.Nodes[j].ID })
}

// WriteJSON serializes the snapshot as indented JSON. Callers should
// Normalize first; struct-typed fields keep key order fixed, so the bytes
// depend only on the snapshot's contents.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
