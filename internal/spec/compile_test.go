package spec_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/spec"
)

// specDocs returns every committed spec document — the examples, the plan
// verifier's fixtures, the canonical goldens — and every input of the spec
// fuzz corpora, keyed by path.
func specDocs(t testing.TB) map[string][]byte {
	t.Helper()
	docs := make(map[string][]byte)
	for _, pattern := range []string{
		"../../examples/specs/*.json",
		"../plan/testdata/*.json",
		"testdata/canonical/*.json",
		"testdata/fuzz/*/*",
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no spec documents match %s", pattern)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(path, "fuzz") {
				data = corpusInput(t, path, data)
			}
			docs[path] = data
		}
	}
	return docs
}

// corpusInput decodes a one-value "go test fuzz v1" corpus file.
func corpusInput(t testing.TB, path string, data []byte) []byte {
	t.Helper()
	for _, line := range strings.Split(string(data), "\n") {
		if lit, ok := strings.CutPrefix(line, "[]byte("); ok {
			s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return []byte(s)
		}
	}
	t.Fatalf("%s: no []byte value", path)
	return nil
}

// graphShape renders everything a compiled graph decides before it runs, one
// line per operator: its ID, name and kind, costs, hint and branch label,
// every incoming dependency with its kind, and a choose's evaluator and
// selector configuration.
func graphShape(g *graph.Graph) []string {
	out := make([]string, 0, g.NumOps())
	for _, op := range g.Ops() {
		line := fmt.Sprintf("%d %q kind=%v cost=%v fixed=%v hint=%v label=%q in=",
			op.ID, op.Name, op.Kind, op.CostPerMB, op.FixedCost, op.Hint, op.BranchLabel)
		for _, pre := range g.Pre(op) {
			dep, _ := g.Dep(pre, op)
			line += fmt.Sprintf("%d/%v,", pre.ID, dep)
		}
		if c, ok := op.Chooser.(*mdf.Chooser); ok {
			line += fmt.Sprintf(" eval=%s monotone=%v convex=%v cost=%v sel=%#v",
				c.Eval.Name, c.Eval.Monotone, c.Eval.Convex, c.Eval.CostPerMB, c.Sel)
		}
		out = append(out, line)
	}
	return out
}

// runShape executes g and renders what the run decided: its error, or its
// completion time and every output row, bit for bit.
func runShape(g *graph.Graph) string {
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	res, err := engine.Execute(g, engine.Options{
		Cluster:     cluster.MustNew(cfg),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(scheduler.SortedHint(true)),
		Incremental: true,
	})
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "completion=%v rows=%d:", res.CompletionTime(), res.Output.NumRows())
	for _, x := range dataset.Flatten[float64](res.Output) {
		fmt.Fprintf(&b, " %x", math.Float64bits(x))
	}
	return b.String()
}

// small reports whether running g is cheap enough for a fuzz iteration, and
// whether every cost it charges is one the simulator is defined for.
func small(s *spec.Spec, g *graph.Graph) bool {
	if s.Source.Rows > 4096 || s.Source.Partitions > 256 || g.NumOps() > 256 {
		return false
	}
	for _, op := range g.Ops() {
		if op.CostPerMB < 0 || op.FixedCost < 0 {
			return false
		}
		if c, ok := op.Chooser.(*mdf.Chooser); ok && c.Eval.CostPerMB < 0 {
			return false
		}
	}
	return true
}

// compileMatchesCanonical checks that the document's spec and its canonical
// form compile to the same graph, of as many operators as Validate counts,
// and that the two graphs run alike; unless
// always is set, only a small graph is run. A document that does not parse
// is skipped.
func compileMatchesCanonical(t *testing.T, name string, doc []byte, always bool) {
	t.Helper()
	raw, err := spec.Parse(doc)
	if err != nil {
		return
	}
	canon, err := raw.Canonicalize()
	if err != nil {
		t.Fatalf("%s: valid spec failed to canonicalize: %v", name, err)
	}
	norm, err := spec.Parse(canon)
	if err != nil {
		t.Fatalf("%s: canonical form does not reparse: %v", name, err)
	}
	g1, err1 := raw.Compile()
	g2, err2 := norm.Compile()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: the spec compiles with %v, its canonical form with %v", name, err1, err2)
	}
	if err1 != nil {
		return
	}
	checkSizes(t, name, raw, g1)
	if a, b := graphShape(g1), graphShape(g2); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: the spec and its canonical form compile to different graphs:\n%s\n---\n%s",
			name, strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	if !always && !small(raw, g1) {
		return
	}
	if a, b := runShape(g1), runShape(g2); a != b {
		t.Fatalf("%s: the spec and its canonical form run differently:\n%s\n---\n%s", name, a, b)
	}
}

// TestCompileReadsNormalized: every committed spec document, and every input
// of the spec fuzz corpora, compiles to the same graph as its canonical form —
// same operators, costs, hints, labels, dependencies and chooser
// configuration, as many operators as Validate counts — and that graph runs
// to the same completion time and the same output rows. The canonical form is the normalised spec rendered, so
// Compile reading the normalised form cannot change a job.
func TestCompileReadsNormalized(t *testing.T) {
	for name, doc := range specDocs(t) {
		compileMatchesCanonical(t, name, doc, true)
	}
}
