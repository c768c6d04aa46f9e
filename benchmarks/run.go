package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// roundResult is the raw reading of one round: n jobs run back to back (or
// by the closed-loop clients) against fresh clusters (or a fresh server).
type roundResult struct {
	Jobs     int       `json:"jobs"`
	Failed   int       `json:"failed"`
	WallS    float64   `json:"wall_s"`
	CPUS     float64   `json:"cpu_s"`
	Mallocs  uint64    `json:"mallocs"`
	Bytes    uint64    `json:"alloc_bytes"`
	VSecSum  float64   `json:"vsec_sum"`
	CalibMS  float64   `json:"calib_ms"`
	GCCycles uint32    `json:"gc_cycles"`
	LatMS    []float64 `json:"-"`

	failures []string
	counts   layerCounts // library workloads: what the engine returned
	serve    *serveRound // serve workloads only
}

// fail records one failed job; the first few reasons are kept for the
// report.
func (r *roundResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.failures) < 5 {
		msg := fmt.Sprintf(format, args...)
		if len(msg) > 300 {
			msg = msg[:300] + "..."
		}
		r.failures = append(r.failures, msg)
	}
}

// bench is one workload run: the generated inputs, their references, and
// the readings taken so far.
type bench struct {
	w        *workload
	perRound int
	ref      []*outcome // reference outcome of w.jobs[i]; nil when no round runs it
	stateDir string     // parent of the per-round state dirs and the disk probes
	quick    bool       // cut the probes' fixed counts (tests only)

	setupS []float64 // seconds of each setup pass
	warmS  float64   // seconds of the discarded warm-up round
	rounds []roundResult
}

//go:embed golden/*.json
var goldenFS embed.FS

// golden is the committed reference of one workload at seed 1. It pins the
// results (selections and output checksums) across commits; virtual time is
// recorded beside them for the reader, but its drift is reported through
// vsec_per_job rather than failed.
type golden struct {
	Seed   int64               `json:"seed"`
	GoArch string              `json:"goarch"`
	Jobs   map[string]*outcome `json:"jobs"`
}

const goldenSeed = 1

func goldenPath(workload string) string { return filepath.Join("golden", workload+".json") }

// setup generates the inputs and runs every distinct job the rounds hold
// once through the plain library path, recording what each measured job
// must reproduce. It returns the reference mismatches against the committed
// golden file, which fail every job of the run: results drifted across
// commits.
func (b *bench) setup(name string, seed int64) (drift []string, err error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	b.w = w
	b.ref = make([]*outcome, len(w.jobs))
	for _, s := range w.round(0, b.perRound) { // every round holds the same jobs
		if b.ref[s.job] != nil {
			continue
		}
		if b.ref[s.job], err = w.jobs[s.job].run(nil); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	if seed == goldenSeed {
		drift = b.checkGolden()
	}
	return drift, nil
}

// checkGolden compares the reference outcomes with the committed ones.
func (b *bench) checkGolden() []string {
	data, err := goldenFS.ReadFile(goldenPath(b.w.info.name))
	if err != nil {
		return []string{fmt.Sprintf("no golden file for %s: %v", b.w.info.name, err)}
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return []string{fmt.Sprintf("golden file for %s: %v", b.w.info.name, err)}
	}
	if g.GoArch != runtime.GOARCH {
		// Floating-point results may differ between architectures (fused
		// multiply-add); the golden file only binds the one it came from.
		return nil
	}
	var drift []string
	for i, j := range b.w.jobs {
		if b.ref[i] == nil {
			continue
		}
		want, ok := g.Jobs[j.name]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: not in golden file", j.name))
			continue
		}
		got := *b.ref[i]
		got.VSec = want.VSec // virtual-time drift is a metric, not a failure
		if diff := want.matches(&got); diff != "" {
			drift = append(drift, fmt.Sprintf("%s: %s", j.name, diff))
		}
	}
	return drift
}

// writeGolden stores the reference outcomes as the workload's golden file.
func (b *bench) writeGolden() error {
	g := golden{Seed: b.w.seed, GoArch: runtime.GOARCH, Jobs: make(map[string]*outcome)}
	for i, j := range b.w.jobs {
		if b.ref[i] == nil {
			return fmt.Errorf("golden file needs a round holding every job; %s is missing", j.name)
		}
		g.Jobs[j.name] = b.ref[i]
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(b.w.info.name), append(data, '\n'), 0o644)
}

// round runs round r of n jobs, traced when tr is non-nil.
func (b *bench) round(r, n int, tr *tracer) roundResult {
	if b.w.serve {
		return b.serveRound(r, n, tr)
	}
	return b.libRound(r, n, tr)
}

// libRound runs the round's jobs back to back from one caller. A job's
// latency runs from graph build to the verified result.
func (b *bench) libRound(r, n int, tr *tracer) roundResult {
	slots := b.w.round(r, n)
	res := roundResult{Jobs: len(slots), LatMS: make([]float64, 0, len(slots))}
	res.CalibMS = ms(calibrate())
	c := tr.cursor()
	runtime.GC()
	before := readCounters()
	for i, s := range slots {
		start := time.Now()
		c.setJob(i)
		root := c.begin("bench", "job")
		out, err := b.w.jobs[s.job].run(c)
		if err != nil {
			res.fail("%v", err)
		} else {
			id := c.begin("bench", "verify")
			diff := b.ref[s.job].matches(out)
			c.end(id)
			if diff != "" {
				res.fail("%s: %s", b.w.jobs[s.job].name, diff)
			}
			res.VSecSum += out.VSec
			res.counts.add(out)
		}
		c.end(root)
		res.LatMS = append(res.LatMS, ms(time.Since(start)))
	}
	res.since(before)
	return res
}

// throughput is the round's verified jobs per host second.
func (r roundResult) throughput() float64 { return float64(r.Jobs-r.Failed) / r.WallS }

// since fills the round's process-wide costs from the counters read at its
// start.
func (r *roundResult) since(before counters) {
	after := readCounters()
	r.WallS = after.wall.Sub(before.wall).Seconds()
	r.CPUS = (after.cpu - before.cpu).Seconds()
	r.Mallocs = after.mallocs - before.mallocs
	r.Bytes = after.bytes - before.bytes
	r.GCCycles = after.gcCycles - before.gcCycles
}

// planRounds sizes the measured phase: as many rounds of the fixed per-round
// work as fit the requested seconds, judged by what the warm-up round took,
// and never fewer than three so that there are rounds to choose the quiet
// ones from.
func planRounds(seconds, warmUpSeconds float64) int {
	if warmUpSeconds <= 0 {
		return 3
	}
	return max(3, min(int(math.Round(seconds/warmUpSeconds)), 64))
}

// metricValue is one metric's reading with, where rounds read it
// separately, every round's raw value.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// perJob divides by the round's verified jobs; a round in which every job
// failed has no per-job cost.
func perJob(x float64, r roundResult) float64 {
	ok := r.Jobs - r.Failed
	if ok <= 0 {
		return 0
	}
	return x / float64(ok)
}

// quietRounds returns the indexes of the fastest quarter of the rounds (two
// at the least), fastest first.
func quietRounds(thr []float64) []int {
	order := make([]int, len(thr))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return thr[order[i]] > thr[order[j]] })
	n := max(2, (len(order)+3)/4)
	return order[:min(n, len(order))]
}

// endToEnd folds the measured rounds into the end-to-end metrics.
//
// The host this runs on is disturbed in bursts of a fraction of a second and
// in phases of many seconds, and a disturbance only ever slows a round
// down. The timing metrics are therefore read off the quiet rounds — the
// fastest quarter of many short rounds of identical work: throughput and
// CPU per job are those rounds' totals, and the latency quantiles pool
// their jobs. What all rounds together read stays in the result document
// (every round's raw values) and in host.slowdown_frac. The allocation
// counts do not depend on the host; they are medians over all rounds.
func (b *bench) endToEnd() (metrics map[string]metricValue, tail float64, samples int) {
	var thr, cpu, allocs, kb, p50s, vsec []float64
	var vsum float64
	attempted, failed := 0, 0
	for _, r := range b.rounds {
		attempted += r.Jobs
		failed += r.Failed
		thr = append(thr, r.throughput())
		cpu = append(cpu, perJob(r.CPUS*1e3, r))
		allocs = append(allocs, perJob(float64(r.Mallocs), r))
		kb = append(kb, perJob(float64(r.Bytes)/1024, r))
		p50s = append(p50s, percentile(sortedCopy(r.LatMS), 50))
		vsec = append(vsec, perJob(r.VSecSum, r))
		vsum += r.VSecSum
	}
	var pooled []float64
	var quiet roundResult
	for _, i := range quietRounds(thr) {
		r := b.rounds[i]
		pooled = append(pooled, r.LatMS...)
		quiet.Jobs += r.Jobs
		quiet.Failed += r.Failed
		quiet.WallS += r.WallS
		quiet.CPUS += r.CPUS
	}
	sort.Float64s(pooled)
	p90, tail := cappedPercentile(pooled, 90)
	quietThr, vsecMean := 0.0, 0.0
	if quiet.WallS > 0 {
		quietThr = quiet.throughput()
	}
	if ok := attempted - failed; ok > 0 {
		vsecMean = vsum / float64(ok)
	}
	out := map[string]metricValue{
		"setup_s":          {Value: median(b.setupS) + b.warmS, Unit: "s"},
		"jobs_per_s":       {Value: quietThr, Unit: "1/s", Rounds: thr},
		"job_ms_p50":       {Value: percentile(pooled, 50), Unit: "ms", Rounds: p50s},
		"job_ms_p90":       {Value: p90, Unit: "ms"},
		"cpu_ms_per_job":   {Value: perJob(quiet.CPUS*1e3, quiet), Unit: "ms", Rounds: cpu},
		"allocs_per_job":   {Value: median(allocs), Unit: "count", Rounds: allocs},
		"alloc_kb_per_job": {Value: median(kb), Unit: "KiB", Rounds: kb},
		"peak_rss_mb":      {Value: peakRSSMB(), Unit: "MiB"},
		"vsec_per_job":     {Value: vsecMean, Unit: "vs", Rounds: vsec},
	}
	return out, tail, len(pooled)
}
