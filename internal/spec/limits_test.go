package spec_test

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"metadataflow/internal/spec"
)

// oversized returns examples/specs/outlier.json with the source size field
// (rows or partitions) set to value.
func oversized(t *testing.T, field string, value int) []byte {
	t.Helper()
	doc, err := os.ReadFile("../../examples/specs/outlier.json")
	if err != nil {
		t.Fatal(err)
	}
	old := map[string]string{"rows": `"rows": 20000`, "partitions": `"partitions": 32`}[field]
	if !strings.Contains(string(doc), old) {
		t.Fatalf("outlier.json has no %s", old)
	}
	return []byte(strings.Replace(string(doc), old, `"`+field+`": `+strconv.Itoa(value), 1))
}

// allocatedBytes is what f allocates on the heap.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A source of more rows or partitions than a process can hold is refused
// by name when the document is parsed, for the cost of reading the
// document; one at the bound parses.
func TestSourceSizesAreBounded(t *testing.T) {
	for _, tc := range []struct {
		field string
		value int
	}{{"partitions", 200_000_000}, {"rows", 2_000_000_000}} {
		var err error
		doc := oversized(t, tc.field, tc.value)
		if b := allocatedBytes(func() { _, err = spec.Parse(doc) }); b > 1<<20 {
			t.Errorf("%s: refusing the document allocated %d bytes", tc.field, b)
		}
		var lim *spec.LimitError
		if !errors.As(err, &lim) || lim.Field != "source."+tc.field || lim.Value != tc.value {
			t.Fatalf("%s = %d: Parse error = %v, want a LimitError naming source.%s", tc.field, tc.value, err, tc.field)
		}
		if !strings.Contains(err.Error(), "source."+tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
		if _, err := spec.Parse(oversized(t, tc.field, lim.Max)); err != nil {
			t.Errorf("%s at its bound %d: %v", tc.field, lim.Max, err)
		}
		if _, err := spec.Parse(oversized(t, tc.field, lim.Max+1)); !errors.As(err, &lim) {
			t.Errorf("%s one above its bound: %v, want a LimitError", tc.field, err)
		}
	}
}
