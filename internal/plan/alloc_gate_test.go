package plan

import (
	"testing"

	"metadataflow/internal/spec"
)

// TestVerifyAllocationsBounded is the gate on what plan.Verify allocates for
// the nested spec of BenchmarkVet: 176 allocations when step paths were
// formatted per step, per branch and per hash-report entry, 97 once they
// were formatted only for a finding and written into one string per hash
// report; the bound leaves a fifth above that.
func TestVerifyAllocationsBounded(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	s, err := spec.Parse(nestedSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	const bound = 116
	got := testing.AllocsPerRun(20, func() { _, _ = Verify(s, cfg) })
	t.Logf("plan.Verify allocates %.0f times (bound %d)", got, bound)
	if got > bound {
		t.Errorf("plan.Verify of the nested spec allocates %.0f times, bound %d: a step path is formatted per step again", got, bound)
	}
}
