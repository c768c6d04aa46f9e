package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"metadataflow/internal/sim"
)

func TestRecorderSpansAndAliases(t *testing.T) {
	r := NewRecorder()
	r.Span(0, KindStage, "load", 1, 3)
	r.Span(NodeMaster, KindChoose, "pick", 5, 5) // instant: end == start
	r.Span(0, KindStage, "reversed", 4, 2)       // an end before start is taken as start

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Node != 0 || spans[0].Start != 1 || spans[0].End != 3 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].End != spans[1].Start {
		t.Errorf("instant span widened: %+v", spans[1])
	}
	if spans[2].Start != 4 || spans[2].End != 4 {
		t.Errorf("reversed span = %+v, want [4, 4]", spans[2])
	}

	// Aliases follow registration order, not raw IDs, and re-registration
	// is a no-op.
	r.RegisterDataset(9001, "filtered")
	r.RegisterDataset(17, "joined")
	r.RegisterDataset(9001, "filtered")
	if got := r.Label(9001, 0); got != "filtered#1/p0" {
		t.Errorf("Label(9001,0) = %q", got)
	}
	if got := r.Label(17, 3); got != "joined#2/p3" {
		t.Errorf("Label(17,3) = %q", got)
	}
	if got := r.Label(555, 0); got != "unregistered/p0" {
		t.Errorf("unregistered Label = %q", got)
	}
	if strings.Contains(r.Label(9001, 0), "9001") {
		t.Error("label leaks the raw dataset ID")
	}
}

func TestResourceBusyBecomesSpan(t *testing.T) {
	r := NewRecorder()
	r.ResourceBusy(2, "disk", 4, 9)
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Node != 2 || s.Kind != KindDisk || s.Start != 4 || s.End != 9 {
		t.Errorf("resource span = %+v", s)
	}
}

func TestWriteChromeTraceMultiTrack(t *testing.T) {
	r := NewRecorder()
	r.Span(0, KindStage, "map", 0, 2)
	r.Span(1, KindStage, "map", 0, 3)
	r.Span(1, KindEval, "eval[b0]", 3, 4)
	r.Span(NodeMaster, KindChoose, "choose", 4, 4)
	r.Counter(1, "mem.resident_bytes", 2, 4096)
	r.Counter(NodeMaster, "sched.queue_depth", 0, 3)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Pid   int    `json:"pid"`
			Tid   int    `json:"tid"`
			Args  *struct {
				Name  string   `json:"name"`
				Value *float64 `json:"value"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	pids := map[int]bool{}
	processNames := map[int]string{}
	threadNames := map[[2]int]string{}
	var counterEvents, spanEvents int
	for _, ev := range doc.TraceEvents {
		pids[ev.Pid] = true
		switch {
		case ev.Phase == "M" && ev.Name == "process_name":
			processNames[ev.Pid] = ev.Args.Name
		case ev.Phase == "M" && ev.Name == "thread_name":
			threadNames[[2]int{ev.Pid, ev.Tid}] = ev.Args.Name
		case ev.Phase == "C":
			counterEvents++
			if ev.Args == nil || ev.Args.Value == nil {
				t.Errorf("counter event %q missing args.value", ev.Name)
			}
		case ev.Phase == "X" || ev.Phase == "i":
			spanEvents++
		}
	}
	// One pid for the master and one per worker node present.
	for _, pid := range []int{1, 2, 3} {
		if !pids[pid] {
			t.Errorf("missing pid %d (pids: %v)", pid, pids)
		}
	}
	if processNames[1] != "master" || processNames[2] != "node 0" || processNames[3] != "node 1" {
		t.Errorf("process names = %v", processNames)
	}
	// Node 1 (pid 3) has stage and eval kind tracks plus a counter track,
	// each with its own labeled tid.
	want := map[string]bool{"stage": false, "eval": false, "mem.resident_bytes": false}
	for k, name := range threadNames {
		if k[0] == 3 {
			if _, ok := want[name]; ok {
				want[name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("pid 3 missing labeled track %q (tracks: %v)", name, threadNames)
		}
	}
	if counterEvents != 2 {
		t.Errorf("counter events = %d, want 2", counterEvents)
	}
	if spanEvents != 4 {
		t.Errorf("span events = %d, want 4", spanEvents)
	}

	// Re-encoding the same recorder is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("double encoding differs")
	}
}

func TestSnapshotNormalizeAndJSON(t *testing.T) {
	s := NewSnapshot()
	s.CompletionSec = 12.5
	s.AddCounter("zeta", 2)
	s.AddCounter("alpha", 1)
	s.AddGauge("ratio", 0.5)
	h := NewHistogram("stage_sec", "virtual_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100) // overflow
	s.Histograms = append(s.Histograms, *h)
	s.Nodes = append(s.Nodes, NodeSnapshot{ID: 1}, NodeSnapshot{ID: 0, Alive: true})
	s.Faults = append(s.Faults, FaultEvent{Kind: "crash", Node: 2})
	s.Normalize()

	if s.Counters[0].Name != "alpha" || s.Nodes[0].ID != 0 {
		t.Errorf("Normalize did not sort: %+v %+v", s.Counters, s.Nodes)
	}
	if h.Count != 3 || h.Buckets[0].Count != 1 || h.Buckets[1].Count != 1 || h.Overflow != 1 {
		t.Errorf("histogram = %+v", h)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if m["schema"] != SnapshotSchema {
		t.Errorf("schema = %v", m["schema"])
	}
	if v, ok := s.CounterValue("alpha"); !ok || v != 1 {
		t.Errorf("CounterValue(alpha) = %v, %v", v, ok)
	}
	if _, ok := s.CounterValue("missing"); ok {
		t.Error("CounterValue(missing) found something")
	}
}

func TestWriteDecisions(t *testing.T) {
	r := NewRecorder()
	var buf bytes.Buffer
	if err := r.WriteDecisions(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no decisions recorded") {
		t.Errorf("empty log output = %q", buf.String())
	}

	r.Decision(Decision{
		T: 3.5, Node: NodeMaster, Component: "scheduler", Kind: "pick",
		Subject: "b1.map", Detail: "policy=bas",
		Candidates: []Candidate{
			{Label: "b1.map", Score: 2, Chosen: true},
			{Label: "b0.map", Score: 1},
		},
	})
	r.Decision(Decision{T: 7, Node: 2, Component: "memorymgr", Kind: "evict", Subject: "d#1/p0"})
	buf.Reset()
	if err := r.WriteDecisions(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scheduler", "pick", "b1.map", "* b1.map", "policy=bas", "node 2", "evict"} {
		if !strings.Contains(out, want) {
			t.Errorf("decisions output missing %q:\n%s", want, out)
		}
	}
	// The chosen candidate is starred; the loser is not.
	if strings.Contains(out, "* b0.map") {
		t.Errorf("loser starred:\n%s", out)
	}
}

// timelineRecorder holds every ranked task kind plus one the renderer has
// never heard of, a stage split over two nodes, and resource spans.
func timelineRecorder() *Recorder {
	r := NewRecorder()
	add := r.Span
	add(1, KindStage, "s0 load", 2, 10)
	add(0, KindStage, "s0 load", 0, 8)
	add(0, KindEval, "s1 choose[b0]", 10, 14.5)
	add(1, KindEval, "s1 choose[b1]", 10, 12)
	add(NodeMaster, KindPruned, "s2 agg", 14.5, 14.5)
	add(NodeMaster, KindChoose, "s1 choose", 14.5, 15)
	add(NodeMaster, Kind("mystery"), "a very long stage label indeed", 15, 16)
	r.ResourceBusy(0, "cpu", 0, 8)
	return r
}

func TestTimelineMergesPerNodeSpans(t *testing.T) {
	rows := timelineRecorder().TimelineRows()
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (two load spans merged, cpu span dropped): %+v", len(rows), rows)
	}
	if r := rows[0]; r.Name != "s0 load" || r.Start != 0 || r.End != 10 {
		t.Errorf("merged row = %+v, want s0 load over [0, 10] in first-seen position", r)
	}
	if NewRecorder().TimelineRows() != nil {
		t.Error("empty recorder must yield no rows")
	}
}

func TestWriteTimelineCoversUnknownKinds(t *testing.T) {
	var buf bytes.Buffer
	if err := timelineRecorder().WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, six rows, then one total per kind: ranked kinds in track
	// order, the unknown kind last.
	if len(lines) != 1+6+5 {
		t.Fatalf("got %d lines, want 12:\n%s", len(lines), out)
	}
	for i, want := range []string{"stage", "eval", "choose", "pruned", "mystery"} {
		if !strings.HasPrefix(lines[7+i], want) {
			t.Errorf("total line %d = %q, want kind %q", i, lines[7+i], want)
		}
	}
	if !strings.Contains(lines[8], "2 events") || !strings.Contains(lines[8], "6.50 virtual seconds") {
		t.Errorf("eval total = %q, want 2 events over 6.50 virtual seconds", lines[8])
	}
	if strings.Contains(out, "cpu") {
		t.Errorf("resource spans leaked into the timeline:\n%s", out)
	}
}

func TestWriteTimelineEdgeCases(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRecorder().WriteTimeline(&buf); err != nil {
		t.Fatalf("WriteTimeline(empty): %v", err)
	}
	if !strings.Contains(buf.String(), "empty timeline") {
		t.Errorf("empty timeline message missing: %q", buf.String())
	}

	buf.Reset()
	if err := timelineRecorder().WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	// The stage column widens to the longest label, so every row is as
	// long as the header.
	for _, line := range lines[1:7] {
		if len(line) != len(lines[0]) {
			t.Errorf("row %q not aligned with header %q", line, lines[0])
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace(empty): %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("empty trace missing traceEvents array")
	}
}

// TestRecorderContract pins, value by value, what the per-report calls leave
// in a recorder: every kind in call order; a span or an interval whose end
// comes before its start clamped to the start; a resource occupation appended
// as one closed span, clamped the same way; decision candidates copied out of
// the caller's slice, which the caller reuses, and kept apart from the next
// decision's; and nothing already recorded lost when Reserve makes room,
// before the first report, between two, or not at all.
func TestRecorderContract(t *testing.T) {
	wantSpans := []Span{
		{Node: 0, Kind: KindCPU, Name: "cpu", Start: 1, End: 2},
		{Node: NodeMaster, Kind: KindStage, Name: "T1", Start: 2, End: 3},
		{Node: 1, Kind: KindDisk, Name: "disk", Start: 3, End: 3},
		{Node: 1, Kind: KindEval, Name: "T2[b0]", Start: 4, End: 4},
		{Node: 0, Kind: KindCPU, Name: "cpu", Start: 11, End: 12},
		{Node: NodeMaster, Kind: KindStage, Name: "T1", Start: 12, End: 13},
		{Node: 1, Kind: KindDisk, Name: "disk", Start: 13, End: 13},
		{Node: 1, Kind: KindEval, Name: "T2[b0]", Start: 14, End: 14},
	}
	wantCounters := []CounterSample{
		{Node: 1, Name: "mem.resident_bytes", T: 3, Value: 0},
		{Node: 1, Name: "mem.resident_bytes", T: 13, Value: 1},
	}
	wantSeries := []seriesSample{
		{node: NodeMaster, name: "sched.rank_churn", op: opAdd, t: 4, v: 1},
		{node: NodeMaster, name: "progress", op: opSet, t: 4, v: 0.5},
		{node: NodeMaster, name: "latency", op: opObserve, t: 4, v: 2},
		{node: NodeMaster, name: "sched.rank_churn", op: opAdd, t: 14, v: 1},
		{node: NodeMaster, name: "progress", op: opSet, t: 14, v: 0.5},
		{node: NodeMaster, name: "latency", op: opObserve, t: 14, v: 2},
	}
	wantIntervals := []Interval{
		{Node: NodeMaster, Name: "active", Start: 4, End: 5},
		{Node: 0, Name: "recovery", Start: 6, End: 6},
		{Node: NodeMaster, Name: "active", Start: 14, End: 15},
		{Node: 0, Name: "recovery", Start: 16, End: 16},
	}
	wantDecisions := []Decision{
		{T: 5, Component: "memorymgr", Kind: "evict", Candidates: []Candidate{{Label: "d#1/p0", Score: 1, Chosen: true}, {Label: "x", Score: 0}}},
		{T: 6, Component: "scheduler", Kind: "pick"},
		{T: 15, Component: "memorymgr", Kind: "evict", Candidates: []Candidate{{Label: "d#2/p0", Score: 1, Chosen: true}, {Label: "x", Score: 1}}},
		{T: 16, Component: "scheduler", Kind: "pick"},
	}
	for _, reserveAt := range []int{-1, 0, 1} {
		r := NewRecorder()
		var cands []Candidate
		for step := 0; step < 2; step++ {
			if step == reserveAt {
				r.Reserve(10, 2)
			}
			base := sim.VTime(step * 10)
			r.RegisterDataset(int64(step), "d")
			r.ResourceBusy(0, "cpu", base+1, base+2)
			r.Span(NodeMaster, KindStage, "T1", base+2, base+3)
			r.Counter(1, "mem.resident_bytes", base+3, float64(step))
			r.ResourceBusy(1, "disk", base+3, base+2)
			r.Span(1, KindEval, "T2[b0]", base+4, base+3.5)
			r.SeriesAdd(NodeMaster, "sched.rank_churn", base+4, 1)
			r.SeriesSet(NodeMaster, "progress", base+4, 0.5)
			r.SeriesObserve(NodeMaster, "latency", base+4, 2)
			r.Interval(NodeMaster, "active", base+4, base+5)
			r.Interval(0, "recovery", base+6, base+5)
			cands = append(cands[:0],
				Candidate{Label: r.Label(int64(step), 0), Score: 1, Chosen: true},
				Candidate{Label: "x", Score: float64(step)})
			r.Decision(Decision{T: base + 5, Component: "memorymgr", Kind: "evict", Candidates: cands})
			cands[0].Label = "overwritten"
			r.Decision(Decision{T: base + 6, Component: "scheduler", Kind: "pick"})
		}
		if got := r.Spans(); !reflect.DeepEqual(got, wantSpans) {
			t.Errorf("reserve at %d: spans\n%v\nwant\n%v", reserveAt, got, wantSpans)
		}
		if got := r.CounterSamples(); !reflect.DeepEqual(got, wantCounters) {
			t.Errorf("reserve at %d: counters %v, want %v", reserveAt, got, wantCounters)
		}
		if !reflect.DeepEqual(r.series, wantSeries) {
			t.Errorf("reserve at %d: series samples %v, want %v", reserveAt, r.series, wantSeries)
		}
		if !reflect.DeepEqual(r.intervals, wantIntervals) {
			t.Errorf("reserve at %d: intervals %v, want %v", reserveAt, r.intervals, wantIntervals)
		}
		got := r.Decisions()
		if !reflect.DeepEqual(got, wantDecisions) {
			t.Fatalf("reserve at %d: decisions\n%+v\nwant\n%+v", reserveAt, got, wantDecisions)
		}
		_ = append(got[0].Candidates, Candidate{Label: "appended"})
		if !reflect.DeepEqual(r.Decisions()[2], wantDecisions[2]) {
			t.Errorf("reserve at %d: an append to one decision's candidates reached the next decision's: %+v",
				reserveAt, r.Decisions()[2])
		}
	}
}
