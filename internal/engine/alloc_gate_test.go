package engine_test

import (
	"runtime"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
)

// mallocs returns the least number of heap allocations one call of f made
// over a few calls, after one to warm up. It is testing.AllocsPerRun without
// the GOMAXPROCS(1) that function forces: the gates below must hold on the
// path a run takes when it may compute ahead, too.
func mallocs(f func()) uint64 {
	n, _ := allocated(f)
	return n
}

// allocated is mallocs that also returns the least number of bytes one call
// of f allocated.
func allocated(f func()) (mallocs, bytes uint64) {
	f()
	mallocs, bytes = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

// TestStepAllocationsBounded is the gate on what the step loop allocates per
// stage: the flat 256-branch plan of BenchmarkStep, BAS, AMM, incremental
// top-4, with operators that return datasets built beforehand, so that every
// allocation counted is the engine's, the scheduler's, the choose session's
// or the memory manager's. What stepping the 516 stages costs beyond NewRun
// with no probe — the allocators' entry chunks (one per 32 partitions stored
// on a node), their maps and the run's growing with the live datasets, a
// choose session, the result — came to 132 allocations when this was
// written, a quarter of one per stage, where the engine that allocated its
// input lists, cursors, shares and entries per stage paid 5 751, eleven per
// stage; the bound leaves a fifth above the reading. With the gauge probe of
// a service job the run may allocate that and the probe's bucket maps, which
// grow to the progress and score of all 256 branches in each of five buckets
// (79 allocations more when written): a report built for a probe that keeps
// no audit, one per pick or per branch, crosses it. NewRun with the gauge
// probe may allocate what it does without one and a few more: the probe, the
// branches' telemetry and their series names, two strings for all 256
// branches (4 more when written, where names concatenated per branch cost
// 1 182). At GOMAXPROCS 4 the run takes the compute-ahead path (every stage
// is offered and stays under the gate), at 1 the serial one.
func TestStepAllocationsBounded(t *testing.T) {
	if engine.RaceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	prebuilt := func(name string) graph.TransformFunc {
		d := dataset.FromRows(name, intRows(64), 4, 1<<20)
		return func([]*dataset.Dataset) (*dataset.Dataset, error) { return d, nil }
	}
	plan := flatPlan(t, 256, prebuilt("in"), prebuilt)
	newRun := func(gauged bool) *engine.Run {
		opts := engine.Options{
			Cluster:     cluster.MustNew(cluster.DefaultConfig()),
			Policy:      memorymgr.AMM,
			Scheduler:   scheduler.BAS(nil),
			Incremental: true,
		}
		if gauged {
			opts.Probe = obs.NewGaugeProbe(obs.DefaultBucketSec)
		}
		run, err := engine.NewRun(plan, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	const bound, bucketMaps, gaugedSetup = 160, 100, 16
	plainSetup := make(map[int]uint64)
	for _, gauged := range []bool{false, true} {
		bound := uint64(bound)
		if gauged {
			bound += bucketMaps
		}
		for _, procs := range []int{1, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				stages := 0
				setup := mallocs(func() { newRun(gauged) })
				whole := mallocs(func() {
					res, err := newRun(gauged).RunToCompletion()
					if err != nil {
						t.Fatal(err)
					}
					stages = res.Metrics.StagesExecuted
				})
				stepping := whole - setup
				t.Logf("gauge probe %v, GOMAXPROCS %d: NewRun allocates %d times, stepping %d stages %d times (bound %d)",
					gauged, procs, setup, stages, stepping, bound)
				if !gauged {
					plainSetup[procs] = setup
				} else if setup > plainSetup[procs]+gaugedSetup {
					t.Errorf("GOMAXPROCS %d: NewRun allocates %d times with the gauge probe, %d without, more than %d apart: something allocates per branch again",
						procs, setup, plainSetup[procs], gaugedSetup)
				}
				if stages != len(plan.Stages) {
					t.Errorf("gauge probe %v, GOMAXPROCS %d: %d of %d stages executed", gauged, procs, stages, len(plan.Stages))
				}
				if stepping > bound {
					t.Errorf("gauge probe %v, GOMAXPROCS %d: stepping %d stages allocates %d times, bound %d: something allocates per stage again",
						gauged, procs, stages, stepping, bound)
				}
			}()
		}
	}
}

// TestRecordedRunAllocationsBounded is the gate on what a run costs with the
// obs.Recorder of mdf run -trace, chaos and the experiments: NewRun and every
// Step of the nested 5×5 synthetic plan, BAS, AMM, incremental, with a fresh
// recorder per run, in allocations and in bytes allocated. When written the
// run allocated 711 times and 271 464 bytes (411 times with no probe); the
// bounds leave a fifth above those readings. A recorder report that formats
// or allocates per event, or room that Reserve no longer makes, crosses
// them. At GOMAXPROCS 4 the run takes the compute-ahead path, at 1 the
// serial one.
func TestRecordedRunAllocationsBounded(t *testing.T) {
	if engine.RaceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	const mallocBound, byteBound = 853, 325_760
	plan := nestedPlan(t, 5, 5)
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			n, bytes := allocated(func() {
				run, err := engine.NewRun(plan, engine.Options{
					Cluster:     cluster.MustNew(cluster.DefaultConfig()),
					Policy:      memorymgr.AMM,
					Scheduler:   scheduler.BAS(nil),
					Incremental: true,
					Probe:       obs.NewRecorder(),
				}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := run.RunToCompletion(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("GOMAXPROCS %d: a recorded run allocates %d times, %d bytes (bounds %d, %d)",
				procs, n, bytes, mallocBound, byteBound)
			if n > mallocBound {
				t.Errorf("GOMAXPROCS %d: a recorded run allocates %d times, bound %d", procs, n, mallocBound)
			}
			if bytes > byteBound {
				t.Errorf("GOMAXPROCS %d: a recorded run allocates %d bytes, bound %d", procs, bytes, byteBound)
			}
		}()
	}
}
