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

// planned is what the compiled graph g has of what Validate counts: its
// operators, its plan's stages, and the branches of its scopes that hold no
// explore, its leaf branches.
type planned struct{ ops, stages, leaves int }

func plannedOf(t testing.TB, what string, g *graph.Graph) planned {
	t.Helper()
	p, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatalf("%s: BuildPlan: %v", what, err)
	}
	n := planned{ops: g.NumOps(), stages: len(p.Stages)}
	for _, sc := range p.Scopes {
		for _, members := range sc.Branches {
			leaf := true
			for _, id := range members {
				if g.Op(id).Kind == graph.KindExplore {
					leaf = false
					break
				}
			}
			if leaf {
				n.leaves++
			}
		}
	}
	return n
}

// checkSizes holds the operator, stage and leaf branch counts Validate
// predicts for s to those of g, s's compiled graph, and returns them.
func checkSizes(t testing.TB, what string, s *spec.Spec, g *graph.Graph) planned {
	t.Helper()
	ops, stages, leaves, err := spec.Sizes(s)
	if err != nil {
		t.Fatalf("%s: Sizes: %v after a clean Validate", what, err)
	}
	got, want := planned{ops, stages, leaves}, plannedOf(t, what, g)
	if got != want {
		t.Fatalf("%s: Validate counts %+v, the compiled graph and its plan have %+v", what, got, want)
	}
	return got
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
	// 4 915 stages: the source; per level its explore and choose, and per
	// branch the scale op's stage; the innermost scale op and leaf share one.
	if n := checkSizes(t, "three levels", small, mustCompile(t, small)); n != (planned{1 + 9010, 4915, 4096}) {
		t.Errorf("three levels: %+v, want %+v", n, planned{1 + 9010, 4915, 4096})
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
	if n := checkSizes(t, "at the bound", s, mustCompile(t, s)); n.ops != lim.Max {
		t.Errorf("at the bound: %d operators, want %d", n.ops, lim.Max)
	}
	if _, err := spec.Parse(doc(lim.Max)); !errors.As(err, &lim) || lim.Value != lim.Max+1 {
		t.Errorf("one above the bound: %v, want a LimitError", err)
	}
}

// exploreStep returns an explore step of branches branches, each running
// body, a JSON list of steps, closed by a max choose on size.
func exploreStep(name string, branches int, body string) string {
	var list strings.Builder
	for b := range branches {
		if b > 0 {
			list.WriteString(", ")
		}
		fmt.Fprintf(&list, `{"label": "b%d"}`, b)
	}
	return fmt.Sprintf(`{"explore": {"name": %q, "branches": [%s], "body": %s,
  "choose": {"evaluator": "size", "selector": {"kind": "max"}}}}`, name, list.String(), body)
}

// pipelineDoc returns a document of a small source and the given steps.
func pipelineDoc(steps ...string) []byte {
	return []byte(`{"source": {"rows": 8, "partitions": 1}, "pipeline": [` + strings.Join(steps, ", ") + `]}`)
}

// wideOp is a step of a wide operator, which starts a stage of its own.
const wideOp = `{"op": {"name": "w", "fn": "standardize"}}`

// A document past the stage bound, or past the leaf branch bound, is
// refused by a LimitError on that count at the step that passes it, though
// it is within the operator bound; one at each bound parses and plans to
// exactly that many.
func TestStageAndLeafCountsAreBounded(t *testing.T) {
	// Stages: the source, an explore of 4 094 branches of three wide ops
	// each, its choose, and wide ops after it, one stage apiece.
	three := "[" + wideOp + ", " + wideOp + ", " + wideOp + "]"
	wide := exploreStep("e", 4094, three)
	for _, tc := range []struct {
		name  string
		doc   []byte
		field string
		path  string
		value int
		want  planned // of a document that parses
	}{
		{"stages at the bound", pipelineDoc(wide, wideOp, wideOp, wideOp), "", "", 0, planned{3 << 12, 3 << 12, 4094}},
		{"stages one past the bound", pipelineDoc(wide, wideOp, wideOp, wideOp, wideOp), "stages", "pipeline[4]", 3<<12 + 1, planned{}},
		// 64 × 64 leaves of three stages each, below a wide op per outer
		// branch: 12 483 stages in as many operators, and 4 096 leaf
		// branches.
		{"nested stages", pipelineDoc(exploreStep("outer", 64, "["+wideOp+", "+exploreStep("inner", 64, three)+"]")),
			"stages", "pipeline[0]", 1 + 2 + 64*(1+2+64*3), planned{}},
		{"leaves at the bound", pipelineDoc(exploreStep("e", 4096, `[{"op": {"name": "x"}}]`)), "", "", 0, planned{4099, 4099, 1 << 12}},
		{"leaves one past the bound", pipelineDoc(exploreStep("e", 4097, `[{"op": {"name": "x"}}]`)), "leaf branches", "pipeline[0]", 4097, planned{}},
		// Sequential explores add their leaves; a nested one multiplies.
		{"leaves of two explores", pipelineDoc(exploreStep("a", 4000, `[{"op": {"name": "x"}}]`), exploreStep("b", 97, `[{"op": {"name": "y"}}]`)),
			"leaf branches", "pipeline[1]", 4097, planned{}},
		{"nested leaves", pipelineDoc(exploreStep("outer", 65, "["+exploreStep("inner", 64, `[{"op": {"name": "x"}}]`)+"]")),
			"leaf branches", "pipeline[0]", 65 * 64, planned{}},
	} {
		s, err := spec.Parse(tc.doc)
		if tc.field == "" {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if n := checkSizes(t, tc.name, s, mustCompile(t, s)); n != tc.want {
				t.Errorf("%s: %+v, want %+v", tc.name, n, tc.want)
			}
			continue
		}
		var lim *spec.LimitError
		if !errors.As(err, &lim) || lim.Field != tc.field || lim.Path != tc.path || lim.Value != tc.value {
			t.Errorf("%s: %v, want a LimitError on %s at %s with %d", tc.name, err, tc.field, tc.path, tc.value)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), tc.path) {
			t.Errorf("%s: error %q names neither the count nor the step", tc.name, err)
		}
	}
}
