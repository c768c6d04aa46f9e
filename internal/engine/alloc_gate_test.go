package engine_test

import (
	"runtime"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
)

// mallocs returns the least number of heap allocations one call of f made
// over a few calls, after one to warm up. It is testing.AllocsPerRun without
// the GOMAXPROCS(1) that function forces: the gate below must hold on the
// path a run takes when it may compute ahead, too.
func mallocs(f func()) uint64 {
	f()
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestStepAllocationsBounded is the gate on what the step loop allocates per
// stage: the flat 256-branch plan of BenchmarkStep, no probe, BAS, AMM,
// incremental top-4, with operators that return datasets built beforehand,
// so that every allocation counted is the engine's, the scheduler's, the
// choose session's or the memory manager's. What stepping the 516 stages
// costs beyond NewRun — the allocators' entry chunks (one per 32 partitions
// stored on a node), their maps and the run's growing with the live
// datasets, a choose session, the result — came to 132 allocations when this
// was written, a quarter of one per stage, where the engine that allocated
// its input lists, cursors, shares and entries per stage paid 5 751, eleven
// per stage; the bound leaves a fifth above the reading. At GOMAXPROCS 4 the run
// takes the compute-ahead path (every stage is offered and stays under the
// gate), at 1 the serial one.
func TestStepAllocationsBounded(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	prebuilt := func(name string) graph.TransformFunc {
		d := dataset.FromRows(name, intRows(64), 4, 1<<20)
		return func([]*dataset.Dataset) (*dataset.Dataset, error) { return d, nil }
	}
	plan := flat256Plan(t, prebuilt("in"), prebuilt)
	newRun := func() *engine.Run {
		run, err := engine.NewRun(plan, engine.Options{
			Cluster:     cluster.MustNew(cluster.DefaultConfig()),
			Policy:      memorymgr.AMM,
			Scheduler:   scheduler.BAS(nil),
			Incremental: true,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	const bound = 160
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			stages := 0
			setup := mallocs(func() { newRun() })
			whole := mallocs(func() {
				res, err := newRun().RunToCompletion()
				if err != nil {
					t.Fatal(err)
				}
				stages = res.Metrics.StagesExecuted
			})
			stepping := whole - setup
			t.Logf("GOMAXPROCS %d: NewRun allocates %d times, stepping %d stages %d times (bound %d)", procs, setup, stages, stepping, bound)
			if stages != len(plan.Stages) {
				t.Errorf("GOMAXPROCS %d: %d of %d stages executed", procs, stages, len(plan.Stages))
			}
			if stepping > bound {
				t.Errorf("GOMAXPROCS %d: stepping %d stages allocates %d times, bound %d: something allocates per stage again",
					procs, stages, stepping, bound)
			}
		}()
	}
}
