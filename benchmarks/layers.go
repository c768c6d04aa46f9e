package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/journal"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/plan"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/service"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// This file turns a traced round into the per-layer metrics. Everything is
// measured from outside the program: spans the driver recorded around its
// own calls and through its decorators (trace.go), counts the program
// already returns (engine.Result.Metrics, JobStatus), direct timed calls
// into one layer at a time, and isolated fixed-count probes for layers that
// cannot be separated while a job runs. A metric a workload does not
// exercise reads 0 there.

// layerCounts sums the counts the engine returns with each finished job.
type layerCounts struct {
	jobs                                         int
	stages, steps                                int
	stagesExecuted, stagesPruned, branchesPruned int
	hits, misses, evictions                      int64
	spilled                                      sim.Bytes
}

func (lc *layerCounts) merge(o layerCounts) {
	lc.jobs += o.jobs
	lc.stages += o.stages
	lc.steps += o.steps
	lc.stagesExecuted += o.stagesExecuted
	lc.stagesPruned += o.stagesPruned
	lc.branchesPruned += o.branchesPruned
	lc.hits += o.hits
	lc.misses += o.misses
	lc.evictions += o.evictions
	lc.spilled += o.spilled
}

func (lc *layerCounts) add(o *outcome) {
	lc.jobs++
	lc.stages += o.stages
	lc.steps += o.steps
	lc.stagesExecuted += o.metrics.StagesExecuted
	lc.stagesPruned += o.metrics.StagesPruned
	lc.branchesPruned += o.metrics.BranchesPruned
	lc.hits += o.metrics.Mem.Hits
	lc.misses += o.metrics.Mem.Misses
	lc.evictions += o.metrics.Mem.Evictions
	lc.spilled += o.metrics.Mem.SpilledBytes
}

// count is a probe's fixed repetition count, cut down on the harness's own
// test runs.
func (b *bench) count(n int) int {
	if b.quick {
		return max(1, n/8)
	}
	return n
}

// layerSet collects the per-layer metrics under their names.
type layerSet map[string]metricValue

func (ls layerSet) set(name string, value float64, unit string) {
	ls[name] = metricValue{Value: value, Unit: unit}
}

// perLayer reports the per-layer metrics of the traced rounds, whose spans
// tr holds.
func (b *bench) perLayer(tr *tracer, rounds []roundResult) (map[string]metricValue, error) {
	ls := layerSet{}
	var traced roundResult // the traced rounds taken together
	var tracedThr []float64
	for _, r := range rounds {
		traced.Jobs += r.Jobs
		traced.Failed += r.Failed
		traced.GCCycles += r.GCCycles
		traced.LatMS = append(traced.LatMS, r.LatMS...)
		traced.counts.merge(r.counts)
		if r.serve != nil {
			if traced.serve == nil {
				traced.serve = &serveRound{}
			}
			traced.serve.rejected += r.serve.rejected
		}
		tracedThr = append(tracedThr, r.throughput())
	}
	last := rounds[len(rounds)-1]

	// In-run spans and counts. The library workloads carry the decorators
	// through the traced round itself; on the serve workloads the jobs run
	// inside the service, out of the decorators' reach, so the same spec
	// mix is replayed once through the library path with the service's
	// engine options and read there.
	inner, counts := tr, traced.counts
	mirror := 0.0
	if b.w.serve {
		replay, err := b.replay()
		if err != nil {
			return nil, err
		}
		inner, counts = replay.tr, replay.counts
		mirror = ms(replay.mirror) / float64(counts.jobs)
	}
	ls.set("ckptstore.mirror_ms_per_job", mirror, "ms")
	b.engineLayers(ls, inner.totals(), counts)
	b.clientLayers(ls, tr.totals(), traced)
	docs, err := b.specDocs()
	if err != nil {
		return nil, err
	}
	if err := b.serviceLayers(ls, docs, last); err != nil {
		return nil, err
	}
	if err := b.specLayers(ls, docs); err != nil {
		return nil, err
	}
	if err := b.obsLayers(ls, docs); err != nil {
		return nil, err
	}
	if err := b.probes(ls); err != nil {
		return nil, err
	}
	if err := b.diskProbes(ls, docs); err != nil {
		return nil, err
	}
	b.derived(ls)

	// Process-wide readings and the cost of tracing itself.
	var calib, untraced []float64
	for _, r := range b.rounds {
		calib = append(calib, r.CalibMS)
		untraced = append(untraced, r.throughput())
	}
	for _, r := range rounds {
		calib = append(calib, r.CalibMS)
	}
	ls.set("host.calib_ms", median(calib), "ms")
	overhead, slowdown := 0.0, 0.0
	if len(untraced) > 0 && slices.Max(untraced) > 0 {
		// Fastest traced round against fastest untraced round: the least
		// disturbed reading of either.
		overhead = 1 - slices.Max(tracedThr)/slices.Max(untraced)
		var quiet []float64
		for _, i := range quietRounds(untraced) {
			quiet = append(quiet, untraced[i])
		}
		slowdown = 1 - median(untraced)/mean(quiet)
	}
	ls.set("trace.overhead_frac", overhead, "frac")
	ls.set("host.slowdown_frac", slowdown, "frac")
	ls.set("runtime.gc_cycles", float64(traced.GCCycles), "count")
	runtime.GC()
	end := readCounters()
	ls.set("runtime.gc_cpu_frac", end.gcCPUFrac, "frac")
	ls.set("runtime.heap_live_mb_end", float64(end.heapLive)/(1<<20), "MiB")
	ls.set("bench.failed_frac", float64(traced.Failed)/float64(max(1, traced.Jobs)), "frac")
	return ls, nil
}

// replayResult is the traced library-path pass over a serve workload's
// distinct specs.
type replayResult struct {
	tr     *tracer
	counts layerCounts
	// mirror is the step time a real checkpoint store adds over the whole
	// pass (durable workload only): a second pass with the store attached
	// minus this one.
	mirror time.Duration
}

func (b *bench) replay() (*replayResult, error) {
	rp := &replayResult{tr: newTracer()}
	jobs := b.w.jobs[:b.count(len(b.w.jobs))]
	c := rp.tr.cursor()
	for i, j := range jobs {
		c.setJob(i)
		root := c.begin("bench", "job")
		out, err := j.run(c)
		c.end(root)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rp.counts.add(out)
	}
	if !b.w.durable {
		return rp, nil
	}
	store := ckptstore.New(filepath.Join(b.stateDir, "replay-ckpt"))
	if err := store.Open(); err != nil {
		return nil, err
	}
	defer store.Close()
	mirrored := newTracer()
	c = mirrored.cursor()
	for _, j := range jobs {
		twin := *j
		twin.store = store
		if _, err := twin.run(c); err != nil {
			return nil, fmt.Errorf("replay with store: %w", err)
		}
	}
	rp.mirror = mirrored.totals()["engine.step"].Total - rp.tr.totals()["engine.step"].Total
	return rp, nil
}

// perJobOf returns a span kind's summed time per job in the given unit
// (time.Millisecond or time.Microsecond) and its calls per job.
func perJobOf(t *spanTotals, jobs int, unit time.Duration) (dur, calls float64) {
	if t == nil || jobs == 0 {
		return 0, 0
	}
	return float64(t.Total) / float64(unit) / float64(jobs), float64(t.Calls) / float64(jobs)
}

// engineLayers reports the layers under a running job: workload kernels,
// mdf evaluators and sessions, plan building, the engine's step loop, the
// scheduler and the memory manager's counts.
func (b *bench) engineLayers(ls layerSet, tot map[string]*spanTotals, lc layerCounts) {
	n := lc.jobs
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	// span reports one span kind's time per job, and its calls per job when
	// a name for them is given.
	span := func(key, name string, unit time.Duration, callsName string) {
		d, calls := perJobOf(tot[key], n, unit)
		ls.set(name, d, map[time.Duration]string{time.Millisecond: "ms", time.Microsecond: "us"}[unit])
		if callsName != "" {
			ls.set(callsName, calls, "count")
		}
	}
	count := func(name string, total float64) { ls.set(name, per(total), "count") }

	span("bench.job", "bench.job_ms", time.Millisecond, "")
	span("workload.build", "workload.build_ms", time.Millisecond, "")
	span("workload.transform", "workload.transform_ms", time.Millisecond, "workload.transform_calls")
	span("mdf.score", "mdf.score_ms", time.Millisecond, "mdf.score_calls")
	span("mdf.offer", "mdf.offer_us", time.Microsecond, "mdf.offer_calls")
	span("graph.build_plan", "graph.build_plan_ms", time.Millisecond, "")
	span("engine.new_run", "engine.new_run_ms", time.Millisecond, "")
	span("engine.step", "engine.step_ms", time.Millisecond, "")
	span("scheduler.pick", "scheduler.pick_us", time.Microsecond, "scheduler.pick_calls")
	self := 0.0
	if t := tot["engine.step"]; t != nil {
		self = per(ms(t.Self))
	}
	ls.set("engine.self_ms", self, "ms")
	count("graph.stages_per_job", float64(lc.stages))
	count("engine.steps_per_job", float64(lc.steps))
	count("engine.stages_executed", float64(lc.stagesExecuted))
	count("engine.stages_pruned", float64(lc.stagesPruned))
	count("engine.branches_pruned", float64(lc.branchesPruned))
	count("memorymgr.hits", float64(lc.hits))
	count("memorymgr.misses", float64(lc.misses))
	count("memorymgr.evictions", float64(lc.evictions))
	ls.set("memorymgr.spilled_mb", per(lc.spilled.MB()), "MB")
}

// clientLayers reports what the closed-loop clients saw on the wire.
func (b *bench) clientLayers(ls layerSet, tot map[string]*spanTotals, traced roundResult) {
	p50 := func(key string, scale float64) float64 {
		t := tot[key]
		if t == nil {
			return 0
		}
		return percentile(sortedCopy(t.Sample), 50) * scale
	}
	ls.set("http.post_jobs_ms_p50", p50("http.post_jobs", 1), "ms")
	ls.set("http.get_job_us_p50", p50("http.get_job", 1e3), "us")
	ls.set("http.get_metrics_ms_p50", p50("http.get_metrics", 1), "ms")
	_, polls := perJobOf(tot["http.get_job"], traced.Jobs, time.Millisecond)
	ls.set("http.polls_per_job", polls, "count")
	wait, _ := perJobOf(tot["client.poll_wait"], traced.Jobs, time.Millisecond)
	ls.set("client.poll_wait_ms", wait, "ms")
	p99 := 0.0
	if b.w.serve {
		p99, _ = cappedPercentile(sortedCopy(traced.LatMS), 99)
	}
	ls.set("client.job_ms_p99", p99, "ms")
	rejected := 0
	if traced.serve != nil {
		rejected = traced.serve.rejected
	}
	ls.set("service.rejected", float64(rejected), "count")
}

// serviceLayers times direct calls into a fresh, otherwise idle server of
// the workload's kind (one job in flight at a time), and on the durable
// workload reads what the last traced round left on disk.
func (b *bench) serviceLayers(ls layerSet, docs [][]byte, traced roundResult) error {
	for _, m := range [][2]string{
		{"service.submit_us", "us"}, {"service.job_us", "us"}, {"service.metrics_ms", "ms"},
		{"service.series_ms", "ms"}, {"service.open_ms", "ms"}, {"journal.replay_ms", "ms"},
		{"journal.bytes_per_job", "B"}, {"journal.records_per_job", "count"},
		{"ckptstore.entries_per_job", "count"}, {"ckptstore.bytes_per_job", "B"},
	} {
		ls.set(m[0], 0, m[1])
	}
	if !b.w.serve {
		return nil
	}
	dir, err := b.roundStateDir(-1)
	if err != nil {
		return err
	}
	srv, err := service.Open(serviceConfig(dir))
	if err != nil {
		return err
	}
	defer srv.Close()
	var submit, job, metrics, series time.Duration
	for i, doc := range docs {
		req := service.JobRequest{Tenant: fmt.Sprintf("tenant-%d", i%tenants), Spec: doc}
		start := time.Now()
		st, err := srv.Submit(req)
		submit += time.Since(start)
		if err != nil {
			return fmt.Errorf("direct submit: %w", err)
		}
		srv.WaitIdle()
		start = time.Now()
		if _, err := srv.Job(st.ID); err != nil {
			return fmt.Errorf("direct job: %w", err)
		}
		job += time.Since(start)
	}
	reads := b.count(5)
	for i := 0; i < reads; i++ {
		start := time.Now()
		if _, err := srv.MetricsJSON(); err != nil {
			return fmt.Errorf("direct metrics: %w", err)
		}
		metrics += time.Since(start)
		start = time.Now()
		doc := srv.Series()
		series += time.Since(start)
		if doc == nil {
			return fmt.Errorf("direct series: no document")
		}
	}
	n := float64(len(docs))
	ls.set("service.submit_us", us(submit)/n, "us")
	ls.set("service.job_us", us(job)/n, "us")
	ls.set("service.metrics_ms", ms(metrics)/float64(reads), "ms")
	ls.set("service.series_ms", ms(series)/float64(reads), "ms")

	if !b.w.durable {
		return nil
	}
	// The traced round's state directory: what recovery costs and what a
	// job leaves on disk.
	sr := traced.serve
	bad, boot, err := reopen(sr)
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("re-open %s: %d jobs did not come back terminal with their status", sr.stateDir, bad)
	}
	ls.set("service.open_ms", ms(boot), "ms")
	jdir := filepath.Join(sr.stateDir, "journal")
	start := time.Now()
	recs, err := journal.Replay(jdir)
	if err != nil {
		return err
	}
	ls.set("journal.replay_ms", ms(time.Since(start)), "ms")
	jobs := float64(max(1, traced.Jobs))
	_, jbytes, err := dirSize(jdir)
	if err != nil {
		return err
	}
	ls.set("journal.records_per_job", float64(len(recs))/jobs, "count")
	ls.set("journal.bytes_per_job", float64(jbytes)/jobs, "B")
	// The store is content-addressed: every job of one spec writes the same
	// entries, so what one job writes is the store divided by the specs.
	files, cbytes, err := dirSize(filepath.Join(sr.stateDir, "ckpt"))
	if err != nil {
		return err
	}
	distinct := float64(min(traced.Jobs, len(b.w.specs)))
	ls.set("ckptstore.entries_per_job", float64(files)/distinct, "count")
	ls.set("ckptstore.bytes_per_job", float64(cbytes)/distinct, "B")
	return nil
}

// dirSize counts the regular files under dir and their bytes.
func dirSize(dir string) (files int, bytes int64, err error) {
	err = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes, err
}

// specDocs returns the spec documents the direct calls and probes run on:
// the workload's own mix on the serve path, and the mix of the same seed
// elsewhere, where the spec layer is not otherwise exercised.
func (b *bench) specDocs() ([][]byte, error) {
	docs := b.w.specs
	if !b.w.serve {
		var err error
		if docs, err = specMixDocs(rand.New(rand.NewSource(b.w.seed))); err != nil {
			return nil, err
		}
	}
	return docs[:b.count(len(docs))], nil
}

// specLayers times the admission path's pure functions one at a time over
// the spec mix: parse, canonicalize, hash, compile, verify.
func (b *bench) specLayers(ls layerSet, docs [][]byte) error {
	vet := serviceVet()
	passes := b.count(4)
	var parse, canon, hash, compile, verify time.Duration
	for p := 0; p < passes; p++ {
		for _, doc := range docs {
			start := time.Now()
			sp, err := spec.Parse(doc)
			parse += time.Since(start)
			if err != nil {
				return err
			}
			start = time.Now()
			if _, err := sp.Canonicalize(); err != nil {
				return err
			}
			canon += time.Since(start)
			start = time.Now()
			hr := sp.HashReport()
			hash += time.Since(start)
			if hr == nil {
				return fmt.Errorf("spec: no hash report")
			}
			start = time.Now()
			if _, err := sp.Compile(); err != nil {
				return err
			}
			compile += time.Since(start)
			start = time.Now()
			res, err := plan.Verify(sp, vet)
			verify += time.Since(start)
			if err != nil {
				return err
			}
			if len(res.Findings) > 0 {
				return fmt.Errorf("plan: generated spec condemned: %v", res.Findings[0])
			}
		}
	}
	n := float64(passes * len(docs))
	ls.set("spec.parse_us", us(parse)/n, "us")
	ls.set("spec.canonicalize_us", us(canon)/n, "us")
	ls.set("spec.hash_report_us", us(hash)/n, "us")
	ls.set("spec.compile_us", us(compile)/n, "us")
	ls.set("plan.verify_us", us(verify)/n, "us")
	return nil
}

// obsLayers prices the always-on recorder: the step loop with a recorder
// against without one on the lib-engine jobs of this seed, and the
// retire-time snapshot, series and merge on the spec mix.
func (b *bench) obsLayers(ls layerSet, docs [][]byte) error {
	stepTime := func(jobs []*libJob, recorded bool) (time.Duration, error) {
		tr := newTracer()
		c := tr.cursor()
		for _, j := range jobs {
			twin := *j
			twin.recorded = recorded
			if _, err := twin.run(c); err != nil {
				return 0, err
			}
		}
		return tr.totals()["engine.step"].Total, nil
	}
	jobs := engineJobs(rand.New(rand.NewSource(b.w.seed)))
	jobs = jobs[:b.count(len(jobs))]
	var plain, recorded time.Duration
	for pass := 0; pass < b.count(3); pass++ {
		p, err := stepTime(jobs, false)
		if err != nil {
			return err
		}
		r, err := stepTime(jobs, true)
		if err != nil {
			return err
		}
		plain += p
		recorded += r
	}
	ls.set("obs.record_ratio", float64(recorded)/float64(plain), "ratio")

	var snapshot, series time.Duration
	var snaps []*obs.Snapshot
	for i, doc := range docs {
		_, run, rec, err := specJob(fmt.Sprintf("spec-%02d", i), doc, false).runKeep(nil)
		if err != nil {
			return err
		}
		start := time.Now()
		snaps = append(snaps, run.Snapshot())
		snapshot += time.Since(start)
		start = time.Now()
		doc := rec.Series(obs.DefaultBucketSec)
		series += time.Since(start)
		if doc == nil {
			return fmt.Errorf("obs: no series document")
		}
	}
	merges := b.count(5)
	start := time.Now()
	for i := 0; i < merges; i++ {
		if obs.MergeSnapshots(snaps) == nil {
			return fmt.Errorf("obs: no merged snapshot")
		}
	}
	merge := time.Since(start)
	n := float64(len(docs))
	ls.set("obs.snapshot_ms", ms(snapshot)/n, "ms")
	ls.set("obs.series_ms", ms(series)/n, "ms")
	ls.set("obs.merge_ms", ms(merge)/float64(merges), "ms")
	return nil
}

// fixedAccesses is an AccessCounter answering the same count for every
// partition, which makes every resident partition an equal AMM candidate.
type fixedAccesses int

func (f fixedAccesses) FutureAccesses(dataset.PartKey) int { return int(f) }

// probes runs the isolated fixed-count probes: layers that cannot be timed
// apart while a job runs. The fsync figures are the sandbox filesystem's.
func (b *bench) probes(ls layerSet) error {
	// Row transforms over one 20000-row dataset of boxed float64s.
	const rows = 20000
	reps := b.count(40)
	vals := make([]dataset.Row, rows)
	for i := range vals {
		vals[i] = float64(i%997) / 997
	}
	in := []*dataset.Dataset{dataset.FromRows("probe", vals, 8, 8)}
	mapFn := mdf.MapRows("probe", 1.0, func(r dataset.Row) dataset.Row { return r.(float64)*1.5 + 1 })
	filterFn := mdf.FilterRows("probe", func(r dataset.Row) bool { return r.(float64) < 0.5 })
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := mapFn(in); err != nil {
			return err
		}
	}
	ls.set("mdf.map_rows_ns_per_row", float64(time.Since(start).Nanoseconds())/float64(rows*reps), "ns")
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := filterFn(in); err != nil {
			return err
		}
	}
	ls.set("mdf.filter_rows_ns_per_row", float64(time.Since(start).Nanoseconds())/float64(rows*reps), "ns")
	start = time.Now()
	for i := 0; i < reps*25; i++ {
		if dataset.FromRows("probe", vals, 8, 8).NumPartitions() != 8 {
			return fmt.Errorf("dataset: wrong partition count")
		}
	}
	ls.set("dataset.from_rows_ns_per_row", float64(time.Since(start).Nanoseconds())/float64(rows*reps*25), "ns")

	// The cross-job queue at the depth two clients keep it: push one, pop
	// one, over a standing backlog.
	q := scheduler.NewCrossJobQueue(64, 4)
	for i := 0; i < 8; i++ {
		q.Push(fmt.Sprintf("job-%04d", i), fmt.Sprintf("tenant-%d", i%tenants), i%3)
	}
	queueOps := b.count(200000)
	start = time.Now()
	for i := 0; i < queueOps; i++ {
		t, ok := q.Pop()
		if !ok || !q.Push(t.ID, t.Tenant, t.Priority) {
			return fmt.Errorf("scheduler: cross-job queue lost a ticket")
		}
	}
	ls.set("scheduler.crossjob_pushpop_ns", float64(time.Since(start).Nanoseconds())/float64(queueOps), "ns")

	// One AMM eviction decision per Put over a full allocator of 256
	// partitions (Alg. 2's argmin scan).
	cfg := cluster.DefaultConfig()
	alloc := memorymgr.NewAllocator(&cluster.Node{}, cfg, 1<<30, memorymgr.AMM, fixedAccesses(3))
	for i := 0; i < 256; i++ {
		alloc.Put(dataset.PartKey{Dataset: dataset.ID(i)}, 1<<22, 0)
	}
	puts := b.count(20000)
	start = time.Now()
	for i := 0; i < puts; i++ {
		alloc.Put(dataset.PartKey{Dataset: dataset.ID(1000 + i)}, 1<<22, sim.VTime(i))
	}
	ls.set("memorymgr.put_evict_ns", float64(time.Since(start).Nanoseconds())/float64(puts), "ns")

	quotas := memorymgr.NewTenantQuotas(1 << 30)
	reserves := b.count(200000)
	start = time.Now()
	for i := 0; i < reserves; i++ {
		if err := quotas.Reserve("tenant-0", 1<<20); err != nil {
			return err
		}
		quotas.Release("tenant-0", 1<<20)
	}
	ls.set("memorymgr.quota_reserve_ns", float64(time.Since(start).Nanoseconds())/float64(reserves), "ns")
	return nil
}

// diskProbes times the journal and the checkpoint store on their own, with
// records and entries of the size the serve workloads write.
func (b *bench) diskProbes(ls layerSet, docs [][]byte) error {
	appendCost := func(name string, noSync bool, n int) (time.Duration, error) {
		dir := filepath.Join(b.stateDir, name)
		j := journal.New(dir, journal.Options{NoSync: noSync})
		if err := j.Open(); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			rec := journal.Record{
				Kind: journal.KindAdmitted, Job: fmt.Sprintf("job-%04d", i), Tenant: "tenant-0",
				ReserveBytes: 1 << 30, SpecHash: "0123456789abcdef", Spec: docs[i%len(docs)],
			}
			if _, err := j.Append(rec); err != nil {
				j.Close()
				return 0, err
			}
		}
		d := time.Since(start)
		return d, j.Close()
	}
	syncAppends, noSyncAppends := b.count(48), b.count(512)
	d, err := appendCost("probe-journal-sync", false, syncAppends)
	if err != nil {
		return err
	}
	ls.set("journal.append_sync_us", us(d)/float64(syncAppends), "us")
	d, err = appendCost("probe-journal-nosync", true, noSyncAppends)
	if err != nil {
		return err
	}
	ls.set("journal.append_nosync_us", us(d)/float64(noSyncAppends), "us")

	// A checkpoint entry of a 64-row partition is about 1.3 KB.
	store := ckptstore.New(filepath.Join(b.stateDir, "probe-ckpt"))
	if err := store.Open(); err != nil {
		return err
	}
	defer store.Close()
	payload := make([]byte, 1300)
	for i := range payload {
		payload[i] = byte('0' + i%10)
	}
	entries := b.count(128)
	start := time.Now()
	for i := 0; i < entries; i++ {
		if err := store.Put(ckptstore.Key{Chain: spec.Hash(i + 1), Part: i % 4}, payload); err != nil {
			return err
		}
	}
	ls.set("ckptstore.put_us", us(time.Since(start))/float64(entries), "us")
	start = time.Now()
	for i := 0; i < entries; i++ {
		if _, err := store.Get(ckptstore.Key{Chain: spec.Hash(i + 1), Part: i % 4}); err != nil {
			return err
		}
	}
	ls.set("ckptstore.get_us", us(time.Since(start))/float64(entries), "us")
	return nil
}

// derived adds the shares the workloads were designed to separate: how much
// of a job's time the kernels and evaluators take, and what the journal
// costs a job by its isolated price (one synced append per record).
func (b *bench) derived(ls layerSet) {
	share := 0.0
	if job := ls["bench.job_ms"].Value; job > 0 {
		share = (ls["workload.transform_ms"].Value + ls["mdf.score_ms"].Value) / job
	}
	ls.set("bench.kernel_share", share, "frac")
	ls.set("journal.est_ms_per_job", ls["journal.records_per_job"].Value*ls["journal.append_sync_us"].Value/1e3, "ms")
}
