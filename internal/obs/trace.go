package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"metadataflow/internal/sim"
)

// This file renders a Recorder's spans two ways. WriteChromeTrace emits
// spans and counter samples in the Chrome Trace Event Format (the JSON
// consumed by chrome://tracing and https://ui.perfetto.dev), multi-track:
// one trace process (pid) per simulated node plus one for the master, one
// named thread (tid) per span kind present on that node, and "C" counter
// tracks for the per-node counter samples. Track numbering is derived from
// the kinds actually present, in a fixed rank order, so adding a new Kind
// never silently collapses onto an existing track. WriteTimeline is the
// terminal view: one text row per task, then per-kind totals.

// usPerVirtualSecond maps one virtual second to one millisecond of trace
// time, keeping thousand-second jobs navigable in the viewer.
const usPerVirtualSecond = 1000.0

// kindRank fixes the display order of kind tracks within a node's process.
// Kinds not listed sort after these, alphabetically.
var kindRank = map[Kind]int{
	KindStage:    0,
	KindEval:     1,
	KindChoose:   2,
	KindPruned:   3,
	KindRecovery: 4,
	KindCPU:      5,
	KindDisk:     6,
	KindNet:      7,
}

// rankedKinds returns the map's kinds in kindRank order, unranked kinds
// after them alphabetically.
func rankedKinds[V any](present map[Kind]V) []Kind {
	kinds := make([]Kind, 0, len(present))
	for k := range present {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		ri, iok := kindRank[kinds[i]]
		rj, jok := kindRank[kinds[j]]
		if iok != jok {
			return iok // ranked kinds before unranked
		}
		if iok && ri != rj {
			return ri < rj
		}
		return kinds[i] < kinds[j]
	})
	return kinds
}

// chromeEvent is one entry of the Chrome Trace Event Format. Args carries
// the payload of "M" metadata events and "C" counter samples.
type chromeEvent struct {
	Name  string `json:"name"`
	Cat   string `json:"cat,omitempty"`
	Phase string `json:"ph"`
	// Ts and Dur are in trace microseconds (see usPerVirtualSecond).
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur,omitempty"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args *eventArgs `json:"args,omitempty"`
}

// eventArgs is the fixed-shape args payload: Name for metadata events,
// Value for counter samples. A struct (not a map) keeps JSON field order
// deterministic.
type eventArgs struct {
	Name  string   `json:"name,omitempty"`
	Value *float64 `json:"value,omitempty"`
}

// pidOf maps a node index to its trace process: pid 1 is the master,
// pid 2+i is worker i.
func pidOf(node int) int {
	if node == NodeMaster {
		return 1
	}
	return 2 + node
}

// processLabel names a trace process for the process_name metadata event.
func processLabel(node int) string {
	if node == NodeMaster {
		return "master"
	}
	return fmt.Sprintf("node %d", node)
}

// WriteChromeTrace renders the recorder's spans and counter samples as a
// multi-track Chrome trace. Output is deterministic: events are grouped by
// node then track, and within a track keep the recorder's call order
// (which the engine derives from virtual time).
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	counters := r.CounterSamples()

	// Discover the tracks present per node. Kind tracks come first in
	// kindRank order, then counter tracks sorted by name.
	kindsByNode := map[int]map[Kind]bool{}
	countersByNode := map[int]map[string]bool{}
	for _, s := range spans {
		m := kindsByNode[s.Node]
		if m == nil {
			m = map[Kind]bool{}
			kindsByNode[s.Node] = m
		}
		m[s.Kind] = true
	}
	for _, c := range counters {
		m := countersByNode[c.Node]
		if m == nil {
			m = map[string]bool{}
			countersByNode[c.Node] = m
		}
		m[c.Name] = true
	}
	nodeSet := map[int]bool{}
	for n := range kindsByNode {
		nodeSet[n] = true
	}
	for n := range countersByNode {
		nodeSet[n] = true
	}
	nodes := make([]int, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	kindTid := map[int]map[Kind]int{}
	counterTid := map[int]map[string]int{}
	events := make([]chromeEvent, 0, len(spans)+len(counters)+4*len(nodes))

	for _, n := range nodes {
		pid := pidOf(n)
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", Pid: pid, Tid: 0,
			Args: &eventArgs{Name: processLabel(n)},
		})
		kinds := rankedKinds(kindsByNode[n])
		names := make([]string, 0, len(countersByNode[n]))
		for name := range countersByNode[n] {
			names = append(names, name)
		}
		sort.Strings(names)

		kindTid[n] = map[Kind]int{}
		counterTid[n] = map[string]int{}
		tid := 1
		for _, k := range kinds {
			kindTid[n][k] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Phase: "M", Pid: pid, Tid: tid,
				Args: &eventArgs{Name: string(k)},
			})
			tid++
		}
		for _, name := range names {
			counterTid[n][name] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Phase: "M", Pid: pid, Tid: tid,
				Args: &eventArgs{Name: name},
			})
			tid++
		}
	}

	for _, s := range spans {
		ce := chromeEvent{
			Name: s.Name,
			Cat:  string(s.Kind),
			Ts:   s.Start.Seconds() * usPerVirtualSecond,
			Pid:  pidOf(s.Node),
			Tid:  kindTid[s.Node][s.Kind],
		}
		if s.End > s.Start {
			ce.Phase = "X"
			ce.Dur = (s.End - s.Start).Seconds() * usPerVirtualSecond
		} else {
			ce.Phase = "i"
		}
		events = append(events, ce)
	}
	for _, c := range counters {
		v := c.Value
		events = append(events, chromeEvent{
			Name:  c.Name,
			Phase: "C",
			Ts:    c.T.Seconds() * usPerVirtualSecond,
			Pid:   pidOf(c.Node),
			Tid:   counterTid[c.Node][c.Name],
			Args:  &eventArgs{Value: &v},
		})
	}

	return json.NewEncoder(w).Encode(traceFile{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData: otherData{
			Note: "1 ms of trace time = 1 virtual cluster second",
		},
	})
}

// traceFile is the top-level trace JSON document. Structs (not maps) keep
// field order, and therefore the serialized bytes, deterministic.
type traceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       otherData     `json:"otherData"`
}

type otherData struct {
	Note string `json:"note"`
}

// TimelineRows folds the recorded task spans into one row per (kind,
// name), in first-seen order: the per-node spans of one stage or evaluator
// call collapse to [earliest start, latest end]. Resource-occupancy spans
// (cpu, disk, net) describe a node, not a task, and are left to the Chrome
// trace.
func (r *Recorder) TimelineRows() []Span {
	type rowKey struct {
		kind Kind
		name string
	}
	var rows []Span
	index := map[rowKey]int{}
	for _, s := range r.Spans() {
		if s.Kind == KindCPU || s.Kind == KindDisk || s.Kind == KindNet {
			continue
		}
		k := rowKey{s.Kind, s.Name}
		i, ok := index[k]
		if !ok {
			index[k] = len(rows)
			rows = append(rows, s)
			continue
		}
		rows[i].Start = min(rows[i].Start, s.Start)
		rows[i].End = max(rows[i].End, s.End)
	}
	return rows
}

// WriteTimeline renders TimelineRows as an aligned text table followed by
// per-kind totals, a quick profile of where virtual time went. Every kind
// present is reported, in the Chrome trace's track order.
func (r *Recorder) WriteTimeline(w io.Writer) error {
	rows := r.TimelineRows()
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "(empty timeline; nothing was recorded)")
		return err
	}
	width := len("stage")
	counts := map[Kind]int{}
	totals := map[Kind]sim.VTime{}
	for _, s := range rows {
		width = max(width, len(s.Name))
		counts[s.Kind]++
		totals[s.Kind] += s.End - s.Start
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%10s  %10s  %-8s %-*s\n", "start", "end", "kind", width, "stage")
	for _, s := range rows {
		fmt.Fprintf(&b, "%10.2f  %10.2f  %-8s %-*s\n", s.Start.Seconds(), s.End.Seconds(), s.Kind, width, s.Name)
	}
	for _, k := range rankedKinds(counts) {
		fmt.Fprintf(&b, "%-8s %4d events  %10.2f virtual seconds (busy, overlapping)\n", k, counts[k], totals[k].Seconds())
	}
	_, err := w.Write(b.Bytes())
	return err
}
