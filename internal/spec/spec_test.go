package spec_test

import (
	"os"
	"strings"
	"testing"

	"metadataflow/internal/baseline"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/spec"
)

func TestParseAndCompile(t *testing.T) {
	s, err := spec.Parse([]byte(spec.SampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" || len(s.Pipeline) != 3 {
		t.Fatalf("unexpected parse result: %+v", s)
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Explores()) != 1 || len(g.Chooses()) != 1 {
		t.Fatal("explore/choose missing from compiled graph")
	}
}

func TestCompiledSpecExecutes(t *testing.T) {
	s, err := spec.Parse([]byte(spec.SampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig()
	cfg.Workers = 4
	res, err := engine.Execute(g, engine.Options{
		Cluster:     cluster.MustNew(cfg),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(scheduler.SortedHint(true)),
		Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// k=3.0 keeps ~99.7% of standardized normals: the first branch in
	// descending-hint order passes >= 0.9, so the other two are pruned.
	if res.Metrics.BranchesPruned != 2 {
		t.Errorf("branches pruned = %d, want 2", res.Metrics.BranchesPruned)
	}
	if got := float64(res.Output.NumRows()) / 2000; got < 0.99 {
		t.Errorf("kept ratio = %v, want >= 0.99", got)
	}
}

func TestCompiledSpecExpands(t *testing.T) {
	s, err := spec.Parse([]byte(spec.SampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("expanded %d jobs, want 3", len(jobs))
	}
}

func TestNestedExploreSpec(t *testing.T) {
	nested := `{
	  "name": "nested",
	  "source": {"rows": 500, "partitions": 2},
	  "pipeline": [
	    {"explore": {
	      "name": "outer",
	      "branches": [{"label": "a", "params": {"s": 1}}, {"label": "b", "params": {"s": 2}}],
	      "body": [
	        {"op": {"name": "scale", "fn": "affine", "a": 1, "paramKey": "s"}},
	        {"explore": {
	          "name": "inner",
	          "branches": [{"label": "x", "params": {"l": 0.5}}, {"label": "y", "params": {"l": 1.5}}],
	          "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "l"}}],
	          "choose": {"evaluator": "size", "selector": {"kind": "max"}}
	        }}
	      ],
	      "choose": {"evaluator": "size", "selector": {"kind": "max"}}
	    }},
	    {"op": {"name": "sink", "fn": "identity"}}
	  ]
	}`
	s, err := spec.Parse([]byte(nested))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	scopes, err := g.MatchScopes()
	if err != nil {
		t.Fatal(err)
	}
	if len(scopes) != 3 {
		t.Fatalf("scopes = %d, want 3 (outer + 2 inner)", len(scopes))
	}
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("expanded %d jobs, want 4", len(jobs))
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"no rows":         `{"source": {"rows": 0}, "pipeline": [{"op": {"name": "x"}}]}`,
		"empty pipeline":  `{"source": {"rows": 10}, "pipeline": []}`,
		"both op/explore": `{"source": {"rows": 10}, "pipeline": [{"op": {"name": "x"}, "explore": {"name": "e", "branches": [{"label":"a"},{"label":"b"}], "body": [{"op":{"name":"y"}}], "choose": {"selector": {"kind":"max"}}}}]}`,
		"neither":         `{"source": {"rows": 10}, "pipeline": [{}]}`,
		"one branch":      `{"source": {"rows": 10}, "pipeline": [{"explore": {"name": "e", "branches": [{"label":"a"}], "body": [{"op":{"name":"y"}}], "choose": {"selector": {"kind":"max"}}}}]}`,
		"empty body":      `{"source": {"rows": 10}, "pipeline": [{"explore": {"name": "e", "branches": [{"label":"a"},{"label":"b"}], "body": [], "choose": {"selector": {"kind":"max"}}}}]}`,
		"bad selector":    `{"source": {"rows": 10}, "pipeline": [{"explore": {"name": "e", "branches": [{"label":"a"},{"label":"b"}], "body": [{"op":{"name":"y"}}], "choose": {"selector": {"kind":"zzz"}}}}]}`,
		"bad evaluator":   `{"source": {"rows": 10}, "pipeline": [{"explore": {"name": "e", "branches": [{"label":"a"},{"label":"b"}], "body": [{"op":{"name":"y"}}], "choose": {"evaluator": "zzz", "selector": {"kind":"max"}}}}]}`,
		"bad op fn":       `{"source": {"rows": 10}, "pipeline": [{"op": {"name": "x", "fn": "teleport"}}]}`,
	}
	for name, doc := range cases {
		if _, err := spec.Parse([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAllOpFns(t *testing.T) {
	for _, fn := range []string{
		"identity", "affine", "square", "abs",
		"filter-less", "filter-greater", "filter-absless",
		"normalize", "standardize",
	} {
		doc := `{"source": {"rows": 100, "partitions": 2},
		         "pipeline": [{"op": {"name": "x", "fn": "` + fn + `", "a": 1, "limit": 1}}]}`
		s, err := spec.Parse([]byte(doc))
		if err != nil {
			t.Errorf("%s: %v", fn, err)
			continue
		}
		g, err := s.Compile()
		if err != nil {
			t.Errorf("%s: compile: %v", fn, err)
			continue
		}
		cfg := cluster.DefaultConfig()
		cfg.Workers = 2
		if _, err := engine.Execute(g, engine.Options{
			Cluster: cluster.MustNew(cfg), Policy: memorymgr.LRU,
			Scheduler: scheduler.BFS(),
		}); err != nil {
			t.Errorf("%s: execute: %v", fn, err)
		}
	}
}

func TestAllSelectors(t *testing.T) {
	for _, sel := range []string{
		`{"kind": "topk", "k": 2}`, `{"kind": "bottomk", "k": 2}`,
		`{"kind": "min"}`, `{"kind": "max"}`,
		`{"kind": "threshold", "bound": 10}`, `{"kind": "interval", "lo": 0, "hi": 1e9}`,
		`{"kind": "kthreshold", "k": 1, "bound": 1}`, `{"kind": "kinterval", "k": 1, "lo": 0, "hi": 1e9}`,
		`{"kind": "mode"}`,
	} {
		doc := `{"source": {"rows": 200, "partitions": 2},
		  "pipeline": [
		    {"explore": {"name": "e",
		      "branches": [{"label":"a","params":{"l":0.5}},{"label":"b","params":{"l":1.0}},{"label":"c","params":{"l":2.0}}],
		      "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "l"}}],
		      "choose": {"evaluator": "size", "selector": ` + sel + `}}},
		    {"op": {"name": "sink", "fn": "identity"}}
		  ]}`
		s, err := spec.Parse([]byte(doc))
		if err != nil {
			t.Errorf("%s: %v", sel, err)
			continue
		}
		g, err := s.Compile()
		if err != nil {
			t.Errorf("%s: compile: %v", sel, err)
			continue
		}
		cfg := cluster.DefaultConfig()
		cfg.Workers = 2
		if _, err := engine.Execute(g, engine.Options{
			Cluster: cluster.MustNew(cfg), Policy: memorymgr.AMM,
			Scheduler: scheduler.BAS(nil), Incremental: true,
		}); err != nil {
			t.Errorf("%s: execute: %v", sel, err)
		}
	}
}

func TestIterateStepSpec(t *testing.T) {
	doc := `{
	  "source": {"rows": 400, "partitions": 2, "seed": 2},
	  "pipeline": [
	    {"explore": {"name": "growth",
	      "branches": [{"label": "slow", "params": {"g": 1.05}}, {"label": "fast", "params": {"g": 3.0}}],
	      "body": [
	        {"iterate": {"name": "grow", "rounds": 6, "divergeAboveMeanAbs": 10,
	          "op": {"name": "scale", "fn": "affine", "paramKey": "g"}}}
	      ],
	      "choose": {"evaluator": "neg-mean-abs", "selector": {"kind": "max"}}}},
	    {"op": {"name": "sink", "fn": "identity"}}
	  ]
	}`
	s, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig()
	cfg.Workers = 2
	res, err := engine.Execute(g, engine.Options{
		Cluster: cluster.MustNew(cfg), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The fast-growth branch diverges past mean |x| = 10 and terminates;
	// the slow branch survives and is selected (higher neg-mean-abs).
	if res.Output.NumRows() == 0 {
		t.Fatal("diverging branch selected: output empty")
	}
}

func TestIterateStepValidation(t *testing.T) {
	bad := `{"source": {"rows": 10}, "pipeline": [
	  {"iterate": {"name": "x", "rounds": 0, "op": {"name": "y"}}}]}`
	if _, err := spec.Parse([]byte(bad)); err == nil {
		t.Error("zero rounds accepted")
	}
	both := `{"source": {"rows": 10}, "pipeline": [
	  {"op": {"name": "a"}, "iterate": {"name": "x", "rounds": 1, "op": {"name": "y"}}}]}`
	if _, err := spec.Parse([]byte(both)); err == nil {
		t.Error("op+iterate in one step accepted")
	}
}

// TestFileSource: a source reads no file. The input is always generated, so
// a document naming a path — which a daemon would read from its own disk on
// any client's behalf — is rejected as an unknown field, not run.
func TestFileSource(t *testing.T) {
	doc := `{"source": {"file": "/dev/zero", "rows": 2},
	  "pipeline": [{"op": {"name": "id"}}]}`
	if _, err := spec.Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), `unknown field "file"`) {
		t.Errorf("a source naming a file: Parse gave %v, want an unknown-field error", err)
	}
}

// TestParseRejectsUnknownFields pins strict decoding: a field the schema
// does not define — at the top level or nested anywhere in the pipeline —
// fails Parse instead of being silently dropped.
func TestParseRejectsUnknownFields(t *testing.T) {
	cases := map[string]string{
		"top level": `{"source": {"rows": 10}, "pipeline": [{"op": {"name": "x"}}], "nme": "typo"}`,
		"in source": `{"source": {"rows": 10, "partitons": 4}, "pipeline": [{"op": {"name": "x"}}]}`,
		"in op":     `{"source": {"rows": 10}, "pipeline": [{"op": {"name": "x", "expense": 1}}]}`,
		"in choose": `{"source": {"rows": 10}, "pipeline": [{"explore": {"name": "e",
			"branches": [{"label": "a"}, {"label": "b"}],
			"body": [{"op": {"name": "y"}}],
			"choose": {"selector": {"kind": "max"}, "evaluater": "size"}}}]}`,
		"in selector": `{"source": {"rows": 10}, "pipeline": [{"explore": {"name": "e",
			"branches": [{"label": "a"}, {"label": "b"}],
			"body": [{"op": {"name": "y"}}],
			"choose": {"selector": {"kind": "topk", "kk": 2}}}}]}`,
		"trailing document": `{"source": {"rows": 10}, "pipeline": [{"op": {"name": "x"}}]} {"extra": 1}`,
		"trailing brace":    `{"source": {"rows": 10}, "pipeline": [{"op": {"name": "x"}}]}}`,
		"trailing bracket":  `{"source": {"rows": 10}, "pipeline": [{"op": {"name": "x"}}]} ]`,
	}
	for name, doc := range cases {
		if _, err := spec.Parse([]byte(doc)); err == nil {
			t.Errorf("%s: Parse accepted a document with an unknown field", name)
		}
	}
	// The same documents without the typos still parse.
	if _, err := spec.Parse([]byte(`{"source": {"rows": 10, "partitions": 4}, "pipeline": [{"op": {"name": "x", "costPerMB": 1}}]}`)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

// TestParseErrorPositions: decode errors point at the offending line and
// column instead of a bare byte offset.
func TestParseErrorPositions(t *testing.T) {
	cases := map[string]struct {
		doc  string
		want string // expected position fragment in the error
	}{
		"syntax error": {
			doc:  "{\"source\": {\"rows\": 5}\n \"pipeline\": [{\"op\": {\"name\": \"x\"}}]}",
			want: "line 2, column",
		},
		"type error": {
			doc:  "{\"source\": {\"rows\": 5},\n \"pipeline\": [{\"op\": {\"name\": 42}}]}",
			want: "line 2, column",
		},
		// Unknown-field errors carry no byte offset, so the position falls
		// back to the decoder's progress: the end of the document read so far.
		"unknown field": {
			doc:  "{\"source\": {\"rows\": 5,\n  \"partitons\": 4},\n \"pipeline\": [{\"op\": {\"name\": \"x\"}}]}",
			want: "line 3, column",
		},
		"trailing document": {
			doc:  "{\"source\": {\"rows\": 5}, \"pipeline\": [{\"op\": {\"name\": \"x\"}}]}\n{\"extra\": 1}",
			want: "line 2, column",
		},
		"first line": {
			doc:  `{"source": nope}`,
			want: "line 1, column 14", // at the first character that breaks the literal
		},
	}
	for name, tc := range cases {
		_, err := spec.Parse([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: Parse accepted a malformed document", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not carry position %q", name, err, tc.want)
		}
	}
}

// TestBranchesCompileTheirOwnParams: branch j runs under branch j's params,
// even when two branches share a label and a hint. The larger limit keeps
// more rows, so a size-maximising choose must keep the second branch: its
// output is what the same filter alone keeps.
func TestBranchesCompileTheirOwnParams(t *testing.T) {
	run := func(doc string) int {
		t.Helper()
		s, err := spec.Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		g, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.DefaultConfig()
		cfg.Workers = 2
		res, err := engine.Execute(g, engine.Options{
			Cluster: cluster.MustNew(cfg), Policy: memorymgr.LRU, Scheduler: scheduler.BFS(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Output.NumRows()
	}
	explored := run(`{"source": {"rows": 400, "partitions": 2, "seed": 5}, "pipeline": [
	  {"explore": {"name": "e",
	    "branches": [{"label": "x", "hint": 0, "params": {"limit": 0.2}},
	                 {"label": "x", "hint": 0, "params": {"limit": 3}}],
	    "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
	    "choose": {"evaluator": "size", "selector": {"kind": "max"}}}}]}`)
	alone := run(`{"source": {"rows": 400, "partitions": 2, "seed": 5}, "pipeline": [
	  {"op": {"name": "f", "fn": "filter-absless", "limit": 3}}]}`)
	if explored != alone {
		t.Errorf("the explore kept %d rows, the second branch's filter alone keeps %d", explored, alone)
	}
}

// TestValidateAllocatesNothing: admission validates every new document, and
// a name lookup in the vocabulary costs no allocation — Validate builds no
// operator, evaluator or selector to check a name.
func TestValidateAllocatesNothing(t *testing.T) {
	data, err := os.ReadFile("../../examples/specs/outlier.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { _ = s.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times, want 0", n)
	}
}
