package chaos

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// outcomeBytes renders everything the oracles read of an outcome.
func outcomeBytes(t *testing.T, o *Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "err=%v completion=%v selections=%v checksums=%v lineage=%v accounting=%v over=%v spans=%d/%d/%d quarantined=%d\n",
		o.Err, o.Completion, o.Selections, o.Checksums, o.Lineage, o.Accounting,
		o.ResidentOver, o.SpanOpens, o.SpanCloses, o.NegativeSpans, o.Quarantined)
	if o.Snapshot != nil {
		if err := o.Snapshot.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestTrialsSerialEqualsPooled is the chaos generator's half of the engine's
// serial-equals-pooled oracle (internal/engine TestSerialEqualsPooled): the
// generated trials — random cluster, near-OOM budget, BAS or BFS, LRU or AMM,
// crashes, slowdowns, disk faults, evaluator and transform panics — with
// their rows scaled above the engine's compute-ahead gate, golden run and
// faulted run, read the same on one processor, where every stage is computed
// where it is picked, and on four, where ready branches are computed ahead
// on other goroutines.
func TestTrialsSerialEqualsPooled(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		spec, err := GenTrialSpec(4321, trial)
		if err != nil {
			t.Fatal(err)
		}
		spec.Workload.Rows *= 8 // 1600..6392 rows: every stage passes the gate
		for _, plan := range []struct {
			name   string
			faulty bool
		}{{"golden", false}, {"faulted", true}} {
			observe := func(procs int) []byte {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				faults := spec.Faults
				if !plan.faulty {
					faults = nil
				}
				return outcomeBytes(t, runOnce(&spec, faults, true))
			}
			serial, pooled := observe(1), observe(4)
			if !bytes.Equal(serial, pooled) {
				t.Fatalf("trial %d (%s): one processor vs four:\n%.1500s\n--- vs ---\n%.1500s", trial, plan.name, serial, pooled)
			}
		}
	}
}
