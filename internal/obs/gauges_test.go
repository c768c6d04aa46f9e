package obs

import (
	"fmt"
	"reflect"
	"testing"

	"metadataflow/internal/sim"
	"metadataflow/internal/stats"
)

// refNodeGauges is what the service did before NodeGauges existed: build the
// whole series document and keep the gauge points of one node, pivoted to
// one value map per populated bucket. It is the reference NodeGauges is
// checked against and survives only here.
func refNodeGauges(r *Recorder, node int, bucketSec sim.VTime) []GaugeBucket {
	byBucket := map[int]map[string]float64{}
	maxBucket := -1
	for _, s := range r.Series(bucketSec).Series {
		if s.Node != node || s.Kind != SeriesGauge {
			continue
		}
		for _, pt := range s.Points {
			if byBucket[pt.Bucket] == nil {
				byBucket[pt.Bucket] = map[string]float64{}
			}
			byBucket[pt.Bucket][s.Name] = pt.Value
			maxBucket = max(maxBucket, pt.Bucket)
		}
	}
	var out []GaugeBucket
	for b := 0; b <= maxBucket; b++ {
		if vals, ok := byBucket[b]; ok {
			out = append(out, GaugeBucket{Bucket: b, Values: vals})
		}
	}
	return out
}

// TestNodeGaugesMatchSeries fills recorders with random reports — gauge
// sets and counter tracks that collide on one name and one node, the same
// names as counters and histograms, several nodes, resource spans (one
// colliding with a set "util.cpu"), task spans, intervals, negative and zero
// times, reports out of time order — and checks, for every node and for
// bucket widths 0 (the default), 1 and 10, that NodeGauges returns exactly
// the gauge points of Series for that node.
func TestNodeGaugesMatchSeries(t *testing.T) {
	names := []string{"a", "b", "sched.queue_depth", "util.cpu", "engine.branch_progress.s0.b1"}
	nodes := []int{NodeMaster, 0, 1, 2}
	resources := []string{"cpu", "disk", "net"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		r := NewRecorder()
		if seed%2 == 0 {
			r.Reserve(8, 4)
		}
		when := func() sim.VTime {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return sim.VTime(-rng.Uniform(0, 30))
			}
			return sim.VTime(rng.Uniform(0, 95))
		}
		for i, n := 0, 20+rng.Intn(300); i < n; i++ {
			node, name := nodes[rng.Intn(len(nodes))], names[rng.Intn(len(names))]
			switch rng.Intn(8) {
			case 0, 1:
				r.SeriesSet(node, name, when(), rng.Normal(0, 10))
			case 2:
				r.Counter(node, name, when(), float64(rng.Intn(100)))
			case 3:
				r.SeriesAdd(node, name, when(), rng.Uniform(-1, 1))
			case 4:
				r.SeriesObserve(node, name, when(), rng.Uniform(-1, 50))
			case 5:
				start := when()
				r.ResourceBusy(node, resources[rng.Intn(len(resources))], start, start+sim.VTime(rng.Uniform(-2, 40)))
			case 6:
				start := when()
				id := r.SpanBegin(node, KindStage, name, start)
				r.SpanEnd(id, start+sim.VTime(rng.Uniform(0, 5)))
			case 7:
				start := when()
				id := r.IntervalBegin(node, name, start)
				r.IntervalEnd(id, start+sim.VTime(rng.Uniform(0, 20)))
			}
		}
		for _, width := range []sim.VTime{0, 1, 10} {
			for _, node := range append(nodes, 7) {
				got, want := r.NodeGauges(node, width), refNodeGauges(r, node, width)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, node %d, bucket width %v:\n got  %s\n want %s",
						seed, node, width, fmt.Sprint(got), fmt.Sprint(want))
				}
			}
		}
	}
}

// TestDecisionCopiesCandidates pins the contract the engine's pick observer
// relies on: the recorder keeps its own copy of a decision's candidates, so
// the caller may overwrite its slice for the next decision, and a reader's
// append to one decision's list cannot reach the next one's.
func TestDecisionCopiesCandidates(t *testing.T) {
	r := NewRecorder()
	scratch := make([]Candidate, 0, 8)
	for i := 0; i < 200; i++ {
		scratch = scratch[:0]
		for c := 0; c <= i%5; c++ {
			scratch = append(scratch, Candidate{Label: fmt.Sprintf("d%d.c%d", i, c), Score: float64(c)})
		}
		r.Decision(Decision{Kind: "pick", Subject: fmt.Sprint(i), Candidates: scratch})
	}
	ds := r.Decisions()
	_ = append(ds[0].Candidates, Candidate{Label: "intruder"})
	for i, d := range ds {
		if len(d.Candidates) != i%5+1 {
			t.Fatalf("decision %d has %d candidates, want %d", i, len(d.Candidates), i%5+1)
		}
		for c, cand := range d.Candidates {
			if want := fmt.Sprintf("d%d.c%d", i, c); cand.Label != want {
				t.Fatalf("decision %d candidate %d is %q, want %q", i, c, cand.Label, want)
			}
		}
	}
}
