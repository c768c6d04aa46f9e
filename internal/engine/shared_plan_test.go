package engine_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/plan"
	"metadataflow/internal/spec"
)

// acceptedDocs returns every spec document of examples/specs and
// internal/plan/testdata that the plan verifier accepts under the service's
// default configuration, and the pooled spec of the serial-equals-pooled
// test, whose inputs are above the engine's compute-ahead gate.
func acceptedDocs(t *testing.T) map[string][]byte {
	t.Helper()
	var paths []string
	for _, pattern := range []string{"../../examples/specs/*.json", "../plan/testdata/*.json"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	docs := map[string][]byte{"pooled": []byte(pooledSpec)}
	cfg := plan.Config{Workers: 4, MemPerWorker: 256 << 20, TenantQuota: 2 * 4 * (256 << 20)}
	for _, path := range paths {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Parse(doc)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res, err := plan.Verify(sp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(res.Findings) == 0 {
			docs[filepath.Base(path)] = doc
		}
	}
	if len(docs) < 4 {
		t.Fatalf("only %d accepted documents", len(docs))
	}
	return docs
}

// planOf compiles and plans doc.
func planOf(t *testing.T, name string, doc []byte) *graph.Plan {
	t.Helper()
	sp, err := spec.Parse(doc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, err := sp.Compile()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	p, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// runOutcome is everything a client of a run reads off it.
type runOutcome struct {
	end        string
	selections map[string][]int
	checksums  []uint64
	snapshot   []byte
	adopted    int
}

// newServiceRun prepares a run of p with the options a service job runs
// with: its own cluster of the service's default shape, AMM, BAS.
func newServiceRun(t *testing.T, p *graph.Plan) *engine.Run {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Workers, cfg.MemPerWorker = 4, 256<<20
	run, err := engine.NewRun(p, engine.Options{Cluster: cluster.MustNew(cfg), Policy: memorymgr.AMM}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// finish steps run to its end and reads its outcome.
func finish(run *engine.Run) (runOutcome, error) {
	for run.Step() {
	}
	if err := run.Err(); err != nil {
		return runOutcome{}, err
	}
	res := run.Result()
	o := runOutcome{end: fmt.Sprint(res.End), selections: run.ChooseSelections(), adopted: run.AdoptedAhead()}
	if res.Output != nil {
		for i := range res.Output.Parts {
			h := fnv.New64a()
			for _, r := range res.Output.Parts[i].BoxedRows() {
				fmt.Fprintf(h, "%v\x1f", r)
			}
			o.checksums = append(o.checksums, h.Sum64())
		}
	}
	var buf bytes.Buffer
	if err := run.Snapshot().WriteJSON(&buf); err != nil {
		return runOutcome{}, err
	}
	o.snapshot = buf.Bytes()
	return o, nil
}

// TestSharedPlanEqualsSeparatePlans is the oracle of sharing one compiled
// plan between jobs: two runs of one plan, stepped side by side on two
// goroutines at GOMAXPROCS 4 with the compute-ahead pool on, end exactly as
// two runs of the same document compiled and planned separately — in their
// selections, output partition checksums, completion time and mdf.metrics/v1
// bytes. A plan carries no per-run state; under -race (make race-short) this
// also shows that nothing a run does writes to the plan it shares.
func TestSharedPlanEqualsSeparatePlans(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	adopted := 0
	for name, doc := range acceptedDocs(t) {
		var want [2]runOutcome
		for k := range want {
			var err error
			if want[k], err = finish(newServiceRun(t, planOf(t, name, doc))); err != nil {
				t.Fatalf("%s: separate plan, run %d: %v", name, k, err)
			}
		}
		shared := planOf(t, name, doc)
		runs := [2]*engine.Run{newServiceRun(t, shared), newServiceRun(t, shared)}
		var got [2]runOutcome
		var errs [2]error
		var wg sync.WaitGroup
		for k := range runs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				got[k], errs[k] = finish(runs[k])
			}(k)
		}
		wg.Wait()
		for k := range got {
			if errs[k] != nil {
				t.Fatalf("%s: shared plan, run %d: %v", name, k, errs[k])
			}
			adopted += got[k].adopted
			switch g, w := got[k], want[k]; {
			case g.end != w.end:
				t.Errorf("%s: run %d on the shared plan ends at %s, on its own plan at %s", name, k, g.end, w.end)
			case !reflect.DeepEqual(g.selections, w.selections):
				t.Errorf("%s: run %d selects %v on the shared plan, %v on its own", name, k, g.selections, w.selections)
			case !reflect.DeepEqual(g.checksums, w.checksums):
				t.Errorf("%s: run %d outputs %x on the shared plan, %x on its own", name, k, g.checksums, w.checksums)
			case !bytes.Equal(g.snapshot, w.snapshot):
				t.Errorf("%s: run %d snapshot on the shared plan\n%s\non its own\n%s", name, k, g.snapshot, w.snapshot)
			}
		}
	}
	if adopted == 0 {
		t.Error("no stage was computed ahead: the pool was never reached")
	}
}
