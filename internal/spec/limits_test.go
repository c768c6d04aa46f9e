package spec_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"metadataflow/internal/graph"
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

// checkNumOps holds the operator count Validate predicts for s to the
// count of g, s's compiled graph, and returns it.
func checkNumOps(t testing.TB, what string, s *spec.Spec, g *graph.Graph) int {
	t.Helper()
	n, err := spec.NumOps(s)
	if err != nil {
		t.Fatalf("%s: NumOps: %v after a clean Validate", what, err)
	}
	if n != g.NumOps() {
		t.Fatalf("%s: Validate counts %d operators, the compiled graph has %d", what, n, g.NumOps())
	}
	return n
}

// mustCompile compiles s.
func mustCompile(t testing.TB, s *spec.Spec) *graph.Graph {
	t.Helper()
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// nestedDoc returns a document of levels explores, each of width branches
// and each in the body of the one before it, after an affine op; the
// innermost body is one op. It compiles to 1 + c(levels) operators, where
// c(1) = 2 + 2·width and c(l) = 2 + width·(1 + c(l−1)).
func nestedDoc(levels, width int) []byte {
	step := `{"op": {"name": "leaf", "fn": "abs"}}`
	for l := levels; l >= 1; l-- {
		var branches strings.Builder
		for b := range width {
			if b > 0 {
				branches.WriteString(", ")
			}
			fmt.Fprintf(&branches, `{"label": "a=%d", "params": {"a": %d}}`, b, b+1)
		}
		step = fmt.Sprintf(`{"explore": {"name": "level%d", "branches": [%s],
  "body": [{"op": {"name": "scale%d", "fn": "affine", "paramKey": "a"}}, %s],
  "choose": {"evaluator": "size", "selector": {"kind": "max"}}}}`, l, branches.String(), l, step)
	}
	return []byte(`{"source": {"rows": 100, "partitions": 2}, "pipeline": [` + step + `]}`)
}

// A document that compiles to more than the bound's operators is refused
// when it is parsed, by a LimitError naming the step at which the count
// passes the bound, for a fixed number of allocations: a six-level, 16-wide
// one would compile to 20 million. Three levels compile as counted.
func TestOperatorCountIsBounded(t *testing.T) {
	small, err := spec.Parse(nestedDoc(3, 16))
	if err != nil {
		t.Fatal(err)
	}
	if n := checkNumOps(t, "three levels", small, mustCompile(t, small)); n != 1+9010 {
		t.Errorf("three levels: %d operators, want %d", n, 1+9010)
	}
	doc := nestedDoc(6, 16)
	allocs := testing.AllocsPerRun(5, func() { _, err = spec.Parse(doc) })
	var lim *spec.LimitError
	if !errors.As(err, &lim) || lim.Field != "operators" {
		t.Fatalf("six levels: Parse error = %v, want a LimitError on operators", err)
	}
	// Level 3's explore, in level 2's body, in level 1's: its count, 2 +
	// 16·(1 + 9010) with the op before it, is the first past the bound.
	if want := "pipeline[0].explore.body[1].explore.body[1]"; lim.Path != want || lim.Value != 3+16*9011 {
		t.Errorf("six levels: refused at %s with %d operators, want %s with %d", lim.Path, lim.Value, want, 3+16*9011)
	}
	if !strings.Contains(err.Error(), lim.Path) {
		t.Errorf("error %q does not name the step", err)
	}
	t.Logf("refusing six levels took %v allocations", allocs)
	if allocs > maxRefusalAllocs {
		t.Errorf("refusing six levels took %v allocations, want at most %d", allocs, maxRefusalAllocs)
	}
}

// maxRefusalAllocs bounds the allocations of parsing and refusing
// nestedDoc(6, 16): decoding its 4 KB, nothing per operator.
const maxRefusalAllocs = 1200

// A document at the bound parses and compiles to that many operators; one
// more is refused at the step that passes it.
func TestOperatorBoundIsExact(t *testing.T) {
	doc := func(rounds int) []byte {
		return []byte(fmt.Sprintf(`{"source": {"rows": 10}, "pipeline": [
  {"iterate": {"name": "grow", "rounds": %d, "op": {"name": "sq", "fn": "square"}}}]}`, rounds))
	}
	s, err := spec.Parse(doc(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = spec.Parse(doc(math.MaxInt))
	var lim *spec.LimitError
	if !errors.As(err, &lim) || lim.Path != "pipeline[0]" || lim.Value != math.MaxInt {
		t.Fatalf("MaxInt rounds: %v, want a LimitError at pipeline[0] that saturates", err)
	}
	if s, err = spec.Parse(doc(lim.Max - 1)); err != nil {
		t.Fatalf("at the bound: %v", err)
	}
	if n := checkNumOps(t, "at the bound", s, mustCompile(t, s)); n != lim.Max {
		t.Errorf("at the bound: %d operators, want %d", n, lim.Max)
	}
	if _, err := spec.Parse(doc(lim.Max)); !errors.As(err, &lim) || lim.Value != lim.Max+1 {
		t.Errorf("one above the bound: %v, want a LimitError", err)
	}
}
