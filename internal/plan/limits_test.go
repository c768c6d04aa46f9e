package plan

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"metadataflow/internal/spec"
)

// A source too large to generate is a compile finding that names the field,
// also on a spec that never went through spec.Parse, and the verifier
// builds no graph for it.
func TestVerifyRefusesOversizedSources(t *testing.T) {
	doc, err := os.ReadFile("../../examples/specs/outlier.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ old, new, field string }{
		{`"partitions": 32`, `"partitions": 200000000`, "source.partitions"},
		{`"rows": 20000`, `"rows": 2000000000`, "source.rows"},
	} {
		var s spec.Spec
		if err := json.Unmarshal([]byte(strings.Replace(string(doc), tc.old, tc.new, 1)), &s); err != nil {
			t.Fatal(err)
		}
		var res *Result
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err = Verify(&s, Config{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("%s: vetting allocated %d bytes", tc.field, b)
		}
		if res.Graph != nil {
			t.Errorf("%s: the verifier compiled an oversized source", tc.field)
		}
		found := false
		for _, f := range res.Findings {
			found = found || f.Rule == "compile" && strings.Contains(f.Msg, tc.field)
		}
		if !found {
			t.Errorf("%s: findings %v, want a compile finding naming the field", tc.field, res.Findings)
		}
	}
}
