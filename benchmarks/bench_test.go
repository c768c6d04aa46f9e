package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"metadataflow/internal/plan"
	"metadataflow/internal/service"
	"metadataflow/internal/spec"
)

// The quantile rule: a percentile is reported only with at least ten
// samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, used := cappedPercentile(xs, 90); used != 75 || v != 38 {
		t.Errorf("p90 of 50 samples: got value %v at p%v, want 38 at p75", v, used)
	}
	if v, used := cappedPercentile(xs[:10], 90); used != 50 || v != 5 {
		t.Errorf("p90 of 10 samples: got value %v at p%v, want the median 5", v, used)
	}
	if got := percentile(xs, 100); got != 50 {
		t.Errorf("p100 = %v, want 50", got)
	}
}

// Self time is a span's duration minus what its direct children cover.
func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Layer: "engine", Name: "step", Parent: -1, Start: 0, End: 100},
		{Layer: "workload", Name: "transform", Parent: 0, Start: 10, End: 30},
		{Layer: "workload", Name: "transform", Parent: 0, Start: 40, End: 90},
		{Layer: "mdf", Name: "score", Parent: 2, Start: 50, End: 60},
	}}
	tot := tr.totals()
	if got := tot["engine.step"]; got.Total != 100 || got.Self != 30 || got.Calls != 1 {
		t.Errorf("engine.step = %+v, want total 100 self 30 calls 1", got)
	}
	if got := tot["workload.transform"]; got.Total != 70 || got.Self != 60 || got.Calls != 2 {
		t.Errorf("workload.transform = %+v, want total 70 self 60 calls 2", got)
	}
	if got := tot["mdf.score"]; got.Total != 10 || got.Self != 10 {
		t.Errorf("mdf.score = %+v, want total 10 self 10", got)
	}
}

// The cursor nests spans in call order and a nil cursor records nothing.
func TestCursorNesting(t *testing.T) {
	var none *cursor
	none.end(none.begin("a", "b"))
	tr := newTracer()
	c := tr.cursor()
	outer := c.begin("engine", "step")
	inner := c.begin("scheduler", "pick")
	c.end(inner)
	c.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("inner span not inside outer: %+v", tr.spans)
	}
}

// One seed always gives the same spec mix and the same round order; another
// seed gives another.
func TestSpecMixAndOrderFollowTheSeed(t *testing.T) {
	a, err := newWorkload("serve-mem", 1)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := newWorkload("serve-mem", 1)
	other, _ := newWorkload("serve-mem", 2)
	if len(a.specs) != specMixSize {
		t.Fatalf("%d specs, want %d", len(a.specs), specMixSize)
	}
	same, differ := true, false
	for i := range a.specs {
		same = same && bytes.Equal(a.specs[i], again.specs[i])
		differ = differ || !bytes.Equal(a.specs[i], other.specs[i])
	}
	if !same {
		t.Error("seed 1 generated two different spec mixes")
	}
	if !differ {
		t.Error("seeds 1 and 2 generated the same spec mix")
	}
	if !reflect.DeepEqual(a.round(3, 128), again.round(3, 128)) {
		t.Error("seed 1 ordered round 3 in two different ways")
	}
	if reflect.DeepEqual(a.round(3, 128), other.round(3, 128)) {
		t.Error("seeds 1 and 2 ordered round 3 alike")
	}
	if reflect.DeepEqual(a.round(3, 128), a.round(4, 128)) {
		t.Error("rounds 3 and 4 are in the same order")
	}
	// Every round holds every spec equally often.
	count := make(map[int]int)
	for _, s := range a.round(0, 130) {
		count[s.job]++
	}
	for i := 0; i < specMixSize; i++ {
		if count[i] != 2 {
			t.Fatalf("spec %d appears %d times in a round of 130, want 2", i, count[i])
		}
	}
}

// The weighted lib-kernel mix holds the four kinds 2:2:4:2.
func TestKernelMixWeights(t *testing.T) {
	w, err := newWorkload("lib-kernel", 1)
	if err != nil {
		t.Fatal(err)
	}
	slots := w.round(0, w.info.perRound)
	if len(slots) != 40 {
		t.Fatalf("round of %d jobs, want 40", len(slots))
	}
	kinds := make(map[string]int)
	for _, s := range slots {
		name := w.jobs[s.job].name
		kinds[name[:len(name)-2]]++
	}
	want := map[string]int{"synthetic": 8, "kde": 8, "timeseries": 16, "dnn": 8}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("mix %v, want %v", kinds, want)
	}
}

// Every generated spec is admitted by the plan verifier under the shape the
// service vets against.
func TestGeneratedSpecsPassPlanVerify(t *testing.T) {
	vet := serviceVet()
	for seed := int64(1); seed <= 3; seed++ {
		w, err := newWorkload("serve-durable", seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, doc := range w.specs {
			sp, err := spec.Parse(doc)
			if err != nil {
				t.Fatalf("seed %d spec %d: %v", seed, i, err)
			}
			res, err := plan.Verify(sp, vet)
			if err != nil {
				t.Fatalf("seed %d spec %d: %v", seed, i, err)
			}
			if len(res.Findings) > 0 {
				t.Errorf("seed %d spec %d: %v", seed, i, res.Findings)
			}
		}
	}
}

// The reference checker catches a flipped selection, a changed checksum and
// a drifted virtual time, on both paths.
func TestReferenceCheckerCatchesDrift(t *testing.T) {
	w, err := newWorkload("serve-mem", 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.jobs[0].run(nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := w.jobs[0].run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := ref.matches(again); diff != "" {
		t.Fatalf("two runs of one job differ: %s", diff)
	}
	if len(ref.Selections) == 0 || len(ref.Checksums) == 0 {
		t.Fatalf("reference has no selections or checksums: %+v", ref)
	}

	flipped := *again
	flipped.Selections = make(map[string][]int)
	for k, v := range again.Selections {
		flipped.Selections[k] = append([]int{v[0] + 1}, v[1:]...)
	}
	if ref.matches(&flipped) == "" {
		t.Error("a flipped selection went unnoticed")
	}
	corrupt := *again
	corrupt.Checksums = append([]string{"0000000000000000"}, again.Checksums[1:]...)
	if ref.matches(&corrupt) == "" {
		t.Error("a changed output checksum went unnoticed")
	}
	late := *again
	late.VSec += 1e-9
	if ref.matches(&late) == "" {
		t.Error("a drifted virtual completion time went unnoticed")
	}

	good := service.JobStatus{ID: "job-0001", State: service.StateDone, Selections: ref.Selections, CompletionSec: ref.VSec}
	if err := verifyStatus(ref, good); err != nil {
		t.Errorf("a matching status was refused: %v", err)
	}
	bad := good
	bad.Selections = flipped.Selections
	if verifyStatus(ref, bad) == nil {
		t.Error("a status with a flipped selection went unnoticed")
	}
	bad = good
	bad.State = service.StateFailed
	if verifyStatus(ref, bad) == nil {
		t.Error("a failed job went unnoticed")
	}
	bad = good
	bad.Audit = []string{"lost: partition 0"}
	if verifyStatus(ref, bad) == nil {
		t.Error("an audit finding went unnoticed")
	}
}

// The checksum reaches through pointers and unexported fields and tells
// values apart.
func TestChecksumWalksRowValues(t *testing.T) {
	type model struct{ w []float64 }
	type row struct {
		name string
		m    *model
	}
	sum := func(r any) fnv64 {
		h := fnvOffset
		h.row(r)
		return h
	}
	a := sum(row{"x", &model{w: []float64{1, 2}}})
	if a != sum(row{"x", &model{w: []float64{1, 2}}}) {
		t.Error("equal rows behind different pointers hash differently")
	}
	if a == sum(row{"x", &model{w: []float64{1, 3}}}) {
		t.Error("rows differing behind a pointer hash alike")
	}
	if sum(1.5) == sum(2.5) {
		t.Error("different floats hash alike")
	}
}

// relSpread is the driver's statistic: quartile distance over median.
func TestRelSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := relSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
	if got := relSpread([]float64{2, 4, 3}); got != 2.0/3 {
		t.Errorf("relSpread of three values = %v, want their range over the median", got)
	}
	if relSpread([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
}

// -compare's verdicts.
func TestJudge(t *testing.T) {
	lower := metricBound{Name: "job_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricBound{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	one := func(v float64) side { return side{median: v, values: []float64{v}} }
	for _, tc := range []struct {
		name string
		a, b side
		m    metricBound
		want verdict
	}{
		{"slower within bound", one(100), one(108), lower, ok},
		{"slower past bound", one(100), one(112), lower, regressed},
		{"faster", one(100), one(50), lower, ok},
		{"throughput down past bound", one(200), one(170), higher, regressed},
		{"throughput up", one(200), one(260), higher, ok},
		{"spread wider than bound", side{median: 100, values: []float64{100}, spread: 0.2}, one(105), lower, unresolved},
		{"wide spread but every run better", side{median: 100, values: []float64{90, 110}, spread: 0.2}, side{median: 50, values: []float64{45, 55}, spread: 0.2}, lower, ok},
	} {
		if _, got := judge(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the harness prints,
// with their units.
func checkAgainstBenchmarkJSON(t *testing.T, path string, res *result) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Logf("no BENCHMARK.json beside the module: %v", err)
		return
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricBound `json:"end_to_end"`
		PerLayer  []metricBound `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := infoFor(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the harness does not have", w.Name)
		}
	}
	for kind, pair := range map[string]struct {
		listed []metricBound
		got    map[string]metricValue
	}{"end_to_end": {doc.EndToEnd, res.EndToEnd}, "per_layer": {doc.PerLayer, res.PerLayer}} {
		if len(pair.listed) != len(pair.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", kind, len(pair.listed), len(pair.got))
		}
		for _, m := range pair.listed {
			if v, ok := pair.got[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %s, the harness prints %+v", kind, m.Name, m.Unit, v)
			}
		}
	}
}

// A smoke run of every workload: one round at tiny N, traced, with the
// spans written out. It runs in a scratch directory because the serve
// workloads keep their state under the working directory.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, info := range workloadInfos {
		out := filepath.Join(dir, info.name+".ndjson")
		began := time.Now()
		res, err := runWorkload(options{
			workload: info.name, seed: goldenSeed, rounds: 1, jobs: 4, setups: 1,
			traced: true, traceOut: out, quickProbes: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", info.name, err)
		}
		t.Logf("%s: %v", info.name, time.Since(began))
		checkAgainstBenchmarkJSON(t, filepath.Join(wd, "..", "BENCHMARK.json"), res)
		if res.Failed != 0 || res.Attempted != 8 { // one untraced and one traced round of 4
			t.Errorf("%s: attempted %d failed %d: %v", info.name, res.Attempted, res.Failed, res.Failures)
		}
		for _, name := range []string{"setup_s", "jobs_per_s", "job_ms_p50", "job_ms_p90", "cpu_ms_per_job",
			"allocs_per_job", "alloc_kb_per_job", "peak_rss_mb", "vsec_per_job"} {
			if v, ok := res.EndToEnd[name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive reading", info.name, name, v)
			}
		}
		if len(res.PerLayer) < 60 {
			t.Errorf("%s: %d per-layer metrics, want the full set", info.name, len(res.PerLayer))
		}
		if st, err := os.Stat(out); err != nil || st.Size() == 0 {
			t.Errorf("%s: no spans written: %v", info.name, err)
		}
		durable := res.PerLayer["journal.bytes_per_job"].Value + res.PerLayer["ckptstore.bytes_per_job"].Value
		if (info.name == "serve-durable") != (durable > 0) {
			t.Errorf("%s: journal+ckptstore bytes per job = %v", info.name, durable)
		}
	}
}
