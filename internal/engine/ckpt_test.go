package engine_test

import (
	"path/filepath"
	"testing"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/spec"
)

// ckptSpec exercises the durable-store wiring end to end: a trunk op, an
// explore, and enough partitions that anticipatory checkpoints land on
// several nodes.
const ckptSpec = `{
  "name": "ckpt",
  "source": {"rows": 120, "partitions": 4, "virtualBytes": 4194304, "distribution": "normal", "seed": 3},
  "pipeline": [
    {"op": {"name": "std", "fn": "standardize"}},
    {"explore": {
      "name": "e",
      "branches": [
        {"label": "lo", "params": {"limit": 0.5}},
        {"label": "hi", "params": {"limit": 1.5}}
      ],
      "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
      "choose": {"evaluator": "size", "selector": {"kind": "max"}}
    }}
  ]
}`

// compileCkptSpec parses the spec and returns its plan plus chain index.
func compileCkptSpec(t *testing.T) (*graph.Plan, []spec.Hash) {
	t.Helper()
	s, err := spec.Parse([]byte(ckptSpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return plan, s.HashReport().OpChains
}

func runWithStore(t *testing.T, store *ckptstore.Store, fp *faults.Plan) *engine.Result {
	t.Helper()
	plan, chains := compileCkptSpec(t)
	run, err := engine.NewRun(plan, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
		Checkpoint: true, Faults: fp,
		Ckpts: store, CkptChains: chains,
	}, 0)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	res, err := run.RunToCompletion()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func openTestStore(t *testing.T) *ckptstore.Store {
	t.Helper()
	store := ckptstore.New(filepath.Join(t.TempDir(), "ckpt"))
	if err := store.Open(); err != nil {
		t.Fatalf("store open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestMirrorWritesContentAddressedEntries checks that anticipatory
// checkpoints land in the store under spec chain keys, and that two runs
// of the same spec share every entry (content addressing).
func TestMirrorWritesContentAddressedEntries(t *testing.T) {
	store := openTestStore(t)
	runWithStore(t, store, &faults.Plan{})
	keys, err := store.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) == 0 {
		t.Fatal("no checkpoint entries mirrored")
	}
	for _, k := range keys {
		if _, err := store.Get(k); err != nil {
			t.Fatalf("entry %s does not verify: %v", k, err)
		}
	}
	// A second run of the same spec must re-key the exact same entries.
	runWithStore(t, store, &faults.Plan{})
	again, err := store.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(again) != len(keys) {
		t.Fatalf("entry set changed across identical runs: %d then %d", len(keys), len(again))
	}
}

// TestCorruptCheckpointRederivesNotFails is the acceptance-criterion
// core: bit-flipped checkpoint entries loaded during crash recovery are
// treated as misses and re-derived by lineage — the run still succeeds
// with the same output as a clean faulted run.
func TestCorruptCheckpointRederivesNotFails(t *testing.T) {
	crash := []faults.Crash{{Node: 0, AfterStages: 2}}
	clean := runWithStore(t, openTestStore(t), &faults.Plan{Crashes: crash})

	store := openTestStore(t)
	flips := []faults.CkptFlip{{Load: 0, Bit: 9}, {Load: 1, Bit: 100}}
	res := runWithStore(t, store, &faults.Plan{Crashes: crash, CkptFlips: flips})
	if res.Output == nil || clean.Output == nil {
		t.Fatal("missing outputs")
	}
	if got, want := res.Output.NumRows(), clean.Output.NumRows(); got != want {
		t.Fatalf("corrupt-checkpoint run output %d rows, clean faulted run %d", got, want)
	}
	if res.Metrics.PartitionsRederived <= clean.Metrics.PartitionsRederived {
		t.Fatalf("corruption did not add re-derivation: %d vs %d partitions",
			res.Metrics.PartitionsRederived, clean.Metrics.PartitionsRederived)
	}
	if res.Metrics.FaultsInjected <= clean.Metrics.FaultsInjected {
		t.Fatalf("ckpt flips not recorded as fault events: %d vs %d",
			res.Metrics.FaultsInjected, clean.Metrics.FaultsInjected)
	}
}

// TestPermanentCrashVerifiesEvacuatedCopies drives the permanent-loss
// path: corrupt entries of a dead node's checkpointed partitions must be
// re-derived instead of rebalanced.
func TestPermanentCrashVerifiesEvacuatedCopies(t *testing.T) {
	crash := []faults.Crash{{Node: 1, AfterStages: 2, Permanent: true}}
	clean := runWithStore(t, openTestStore(t), &faults.Plan{Crashes: crash})
	store := openTestStore(t)
	res := runWithStore(t, store, &faults.Plan{
		Crashes:   crash,
		CkptFlips: []faults.CkptFlip{{Load: 0, Bit: 3}},
	})
	if got, want := res.Output.NumRows(), clean.Output.NumRows(); got != want {
		t.Fatalf("output %d rows, want %d", got, want)
	}
	moved := res.Metrics.PartitionsRederived + res.Metrics.PartitionsRebalanced
	if moved == 0 {
		t.Fatal("permanent crash moved no partitions")
	}
	if res.Metrics.PartitionsRebalanced >= clean.Metrics.PartitionsRebalanced {
		t.Fatalf("corrupt copy still rebalanced: %d vs clean %d",
			res.Metrics.PartitionsRebalanced, clean.Metrics.PartitionsRebalanced)
	}
}
