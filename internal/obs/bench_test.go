package obs

import (
	"strconv"
	"testing"

	"metadataflow/internal/sim"
)

// jobShape is the plan the benchmarks replay: the median spec of the serve
// benchmark's mix, 41 stages in a 3×3 nested explore on 4 workers. Run by
// the service such a job reports about 800 spans (500 of them resource
// occupations), 225 counter samples, 45 decisions with 70 candidates, 160
// series samples, 12 intervals and 80 dataset registrations; emitJob issues
// the same calls in the same proportions and order of magnitude.
const (
	jobStages = 41
	jobNodes  = 4
)

// jobNames are the strings a run holds before its first event: stage labels
// and per-branch series names. The engine formats neither per event.
type jobNames struct {
	stage, latency, progress, score, active []string
}

func newJobNames() *jobNames {
	n := &jobNames{}
	for s := 0; s < jobStages; s++ {
		n.stage = append(n.stage, "T"+strconv.Itoa(s)+"[op]")
	}
	for b := 0; b < 12; b++ {
		suffix := ".s" + strconv.Itoa(b/3) + ".b" + strconv.Itoa(b%3)
		n.latency = append(n.latency, "engine.stage_latency"+suffix)
		n.progress = append(n.progress, "engine.branch_progress"+suffix)
		n.score = append(n.score, "engine.branch_score"+suffix)
		n.active = append(n.active, "engine.branch_active"+suffix)
	}
	return n
}

// emitJob reports one job's telemetry through the per-event methods. Like the
// engine it builds the audit reports only for a probe that is an Auditor, and
// reports resource occupations only to one that observes them.
func emitJob(p Probe, n *jobNames, cands []Candidate) {
	a, _ := p.(Auditor)
	res, _ := p.(interface {
		ResourceBusy(node int, resource string, start, end sim.VTime)
	})
	var start, end [12]sim.VTime
	for s := 0; s < jobStages; s++ {
		t := sim.VTime(s) * 1.75
		branch := s % 12
		p.Counter(NodeMaster, "sched.queue_depth", t, float64(3+s%5))
		if a != nil {
			cands = cands[:0]
			for c := 0; c <= s%3; c++ {
				cands = append(cands, Candidate{Label: n.stage[(s+c)%jobStages], Score: float64(c), Chosen: c == 0})
			}
			a.Decision(Decision{
				T: t, Node: NodeMaster, Component: "scheduler", Kind: "pick",
				Subject: n.stage[s], Detail: "policy=bas", Candidates: cands,
			})
			p.SeriesAdd(NodeMaster, "sched.rank_churn", t, float64(s%2))
			a.RegisterDataset(int64(1000+s), "out")
		}
		for node := 0; node < jobNodes; node++ {
			if res != nil {
				res.ResourceBusy(node, "disk", t, t+0.2)
				res.ResourceBusy(node, "cpu", t+0.2, t+1.2)
				if s%2 == 0 {
					res.ResourceBusy(node, "net", t+1.2, t+1.4)
				}
			}
			p.Counter(node, "mem.resident_bytes", t+1.4, float64(s<<20))
			if a != nil {
				a.Span(node, KindStage, n.stage[s], t, t+1.5)
			}
		}
		if a != nil {
			a.RegisterDataset(int64(1000+s), "out")
		}
		p.SeriesObserve(NodeMaster, n.latency[branch], t+1.5, 1.5)
		if s < 12 {
			start[branch], end[branch] = t, t
		}
		p.SeriesSet(NodeMaster, n.progress[branch], t+1.5, float64(s/12+1)/4)
		if s%4 == 3 {
			// A branch completes: its result is scored on every node.
			for node := 0; node < jobNodes; node++ {
				if res != nil {
					res.ResourceBusy(node, "cpu", t+1.5, t+1.6)
				}
				if a != nil {
					a.Span(node, KindEval, n.stage[s], t+1.5, t+1.6)
				}
			}
			p.SeriesSet(NodeMaster, n.score[branch], t+1.6, float64(s))
			end[branch] = t + 1.6
		}
		if s%10 == 9 && a != nil {
			// Memory pressure: an eviction names its victim.
			a.Decision(Decision{
				T: t, Node: s % jobNodes, Component: "memorymgr", Kind: "evict",
				Subject: a.Label(int64(1000+s-3), s%jobNodes), Detail: "policy=amm",
			})
		}
	}
	// Each branch's lifetime is reported once, where the job ends.
	for branch := range start {
		p.Interval(NodeMaster, n.active[branch], start[branch], end[branch])
	}
}

// filledRecorder returns a recorder holding one job's telemetry.
func filledRecorder() *Recorder {
	r := NewRecorder()
	r.Reserve(jobStages, jobNodes)
	emitJob(r, newJobNames(), nil)
	return r
}

// BenchmarkRecorderWrite is what a job pays for being recorded: a recorder
// sized from the plan, then every per-event call of the job.
func BenchmarkRecorderWrite(b *testing.B) {
	names := newJobNames()
	cands := make([]Candidate, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRecorder()
		r.Reserve(jobStages, jobNodes)
		emitJob(r, names, cands)
	}
}

// BenchmarkSeries builds the mdf.series/v1 document of one job, as /series
// and mdf run -series do.
func BenchmarkSeries(b *testing.B) {
	r := filledRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if doc := r.Series(DefaultBucketSec); len(doc.Series) == 0 {
			b.Fatal("empty document")
		}
	}
}

// BenchmarkGaugeProbe is what a service job pays for its telemetry: an empty
// gauge probe, every per-event call the engine makes of it during the job,
// and the buckets the service reads at retirement.
func BenchmarkGaugeProbe(b *testing.B) {
	names := newJobNames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGaugeProbe(DefaultBucketSec)
		emitJob(g, names, nil)
		if len(g.Buckets()) == 0 {
			b.Fatal("no gauges")
		}
	}
}
