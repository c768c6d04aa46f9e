package obs

import (
	"bytes"
	"math"
	"testing"
)

func TestLogExpExactPowers(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{8, 3},      // exact power of two lands in its own bucket
		{8.0001, 4}, // just past the bound rolls over
		{1, 0},
		{0.5, -1},
		{0.75, 0},
		{3, 2},
		{0, logExpFloor},
		{-1, logExpFloor},
		{math.NaN(), logExpFloor},
	}
	for _, c := range cases {
		if got := logExp(c.v); got != c.want {
			t.Errorf("logExp(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func recordFixture(r *Recorder) {
	r.SeriesAdd(NodeMaster, "sched.rank_churn", 5, 2)
	r.SeriesAdd(NodeMaster, "sched.rank_churn", 7, 1)
	r.SeriesAdd(NodeMaster, "sched.rank_churn", 15, 4)
	r.SeriesSet(NodeMaster, "engine.branch_score.b0", 12, 0.5)
	r.SeriesSet(NodeMaster, "engine.branch_score.b0", 18, 0.9) // same bucket: last wins
	r.SeriesObserve(0, "stage_latency", 3, 8)                  // exact power of two
	r.SeriesObserve(0, "stage_latency", 4, 0.3)
	r.Interval(NodeMaster, "branch_active", 0, 25)
	r.Counter(1, "mem.resident_bytes", 9, 4096)
	r.Span(0, KindStage, "T1", 0, 12)
	r.ResourceBusy(0, "cpu", 5, 25)
}

func TestSeriesDocBucketsAndKinds(t *testing.T) {
	r := NewRecorder()
	recordFixture(r)
	doc := r.Series(10)

	if doc.Schema != SeriesSchema {
		t.Fatalf("schema = %q, want %q", doc.Schema, SeriesSchema)
	}
	if doc.Buckets != 3 {
		t.Fatalf("buckets = %d, want 3 (events reach t=25)", doc.Buckets)
	}

	find := func(name string, node int) *Series {
		for i := range doc.Series {
			if doc.Series[i].Name == name && doc.Series[i].Node == node {
				return &doc.Series[i]
			}
		}
		t.Fatalf("series %q node %d missing; have %v", name, node, names(doc))
		return nil
	}

	churn := find("sched.rank_churn", NodeMaster)
	if churn.Kind != SeriesCounter || len(churn.Points) != 2 {
		t.Fatalf("rank_churn kind=%s points=%v", churn.Kind, churn.Points)
	}
	if churn.Points[0] != (SeriesPoint{Bucket: 0, Value: 3}) {
		t.Fatalf("rank_churn bucket 0 = %+v, want sum 3", churn.Points[0])
	}
	if churn.Points[1] != (SeriesPoint{Bucket: 1, Value: 4}) {
		t.Fatalf("rank_churn bucket 1 = %+v, want 4", churn.Points[1])
	}

	score := find("engine.branch_score.b0", NodeMaster)
	if score.Kind != SeriesGauge || len(score.Points) != 1 || score.Points[0].Value != 0.9 {
		t.Fatalf("branch_score = %+v, want last-wins 0.9", score.Points)
	}

	lat := find("stage_latency", 0)
	if lat.Kind != SeriesHistogram || len(lat.Hist) != 1 {
		t.Fatalf("stage_latency = %+v", lat.Hist)
	}
	hp := lat.Hist[0]
	if hp.Count != 2 || hp.Sum != 8.3 {
		t.Fatalf("stage_latency bucket 0: count=%d sum=%v", hp.Count, hp.Sum)
	}
	if len(hp.Log) != 2 || hp.Log[0].Exp != -1 || hp.Log[1].Exp != 3 {
		t.Fatalf("stage_latency log buckets = %+v", hp.Log)
	}

	// Interval => start counter + duration histogram.
	starts := find("branch_active", NodeMaster)
	if starts.Kind != SeriesCounter || starts.Points[0].Value != 1 {
		t.Fatalf("branch_active starts = %+v", starts.Points)
	}
	dur := find("branch_active.duration", NodeMaster)
	if dur.Kind != SeriesHistogram || dur.Hist[0].Sum != 25 {
		t.Fatalf("branch_active.duration = %+v", dur.Hist)
	}

	// Counter track derived as a gauge series.
	res := find("mem.resident_bytes", 1)
	if res.Kind != SeriesGauge || res.Points[0].Value != 4096 {
		t.Fatalf("mem.resident_bytes = %+v", res.Points)
	}

	// Task spans derive duration histograms; resource spans derive
	// utilization gauges.
	stageLat := find("lat.stage", 0)
	if stageLat.Hist[0].Sum != 12 {
		t.Fatalf("lat.stage = %+v", stageLat.Hist)
	}
	util := find("util.cpu", 0)
	if len(util.Points) != 3 {
		t.Fatalf("util.cpu = %+v, want 3 buckets", util.Points)
	}
	// Busy 5..25 over 10s buckets: 0.5, 1.0, 0.5.
	if util.Points[0].Value != 0.5 || util.Points[1].Value != 1 || util.Points[2].Value != 0.5 {
		t.Fatalf("util.cpu fractions = %+v", util.Points)
	}
}

func names(doc *SeriesDoc) []string {
	out := make([]string, len(doc.Series))
	for i, s := range doc.Series {
		out[i] = s.Name
	}
	return out
}

// TestSeriesDeterministic pins the double-run byte-compare contract: two
// identically fed recorders serialise byte-identical mdf.series/v1 docs.
func TestSeriesDeterministic(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		r := NewRecorder()
		recordFixture(r)
		if err := r.Series(10).WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("series doc not deterministic:\n%s\nvs\n%s", bufs[0].String(), bufs[1].String())
	}
}

func TestSeriesDefaultBucket(t *testing.T) {
	r := NewRecorder()
	r.SeriesAdd(0, "c", 0, 1)
	doc := r.Series(0)
	if doc.BucketSec != DefaultBucketSec {
		t.Fatalf("bucket_sec = %v, want default %v", doc.BucketSec, DefaultBucketSec)
	}
}
