package spec

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCanonicalizeFixpoint: Parse → Canonicalize → Parse → Canonicalize is
// byte-identical, on the sample spec and on a minimal one.
func TestCanonicalizeFixpoint(t *testing.T) {
	for name, doc := range map[string]string{
		"sample":  SampleSpec,
		"minimal": `{"source":{"rows":5},"pipeline":[{"op":{"name":"x"}}]}`,
		"iterate": `{"source":{"rows":5},"pipeline":[{"iterate":{"name":"i","rounds":3,"op":{"fn":"square","name":"sq"}}}]}`,
	} {
		c1, err := Canonical([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c2, err := Canonical(c1)
		if err != nil {
			t.Fatalf("%s: reparse canonical: %v", name, err)
		}
		if !bytes.Equal(c1, c2) {
			t.Errorf("%s: canonicalize is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", name, c1, c2)
		}
	}
}

// TestCanonicalizeNormalizes pins the normalization rules: defaults are
// materialised, dead fields vanish, keys come out sorted.
func TestCanonicalizeNormalizes(t *testing.T) {
	doc := `{
	  "name": "n",
	  "source": {"rows": 10, "distribution": "weird", "seed": 3},
	  "pipeline": [
	    {"op": {"name": "id", "a": 4, "limit": 9, "paramKey": "zz"}},
	    {"explore": {
	      "name": "e",
	      "branches": [
	        {"label": "a", "params": {"limit": 1, "dead": 7}},
	        {"label": "b", "hint": 5, "params": {"limit": 2}}
	      ],
	      "body": [{"op": {"name": "f", "fn": "filter-less", "paramKey": "limit", "a": 3}}],
	      "choose": {"selector": {"kind": "max", "k": 9, "bound": 2}}
	    }}
	  ]
	}`
	out, err := Canonical([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{
		`"schema_version": "1.0.0"`,
		`"distribution": "normal"`, // unknown distribution → the default Compile uses
		`"partitions": 8`,          // default materialised
		`"virtualBytes": 1073741824`,
		`"fn": "identity"`,    // empty fn → identity
		`"costPerMB": 0.001`,  // default cost materialised
		`"hint": 0`,           // missing hint → branch index
		`"hint": 5`,           // explicit hint preserved
		`"evaluator": "size"`, // empty evaluator → size
	} {
		if !strings.Contains(s, want) {
			t.Errorf("canonical form missing %s:\n%s", want, s)
		}
	}
	for _, dead := range []string{
		`"dead"`,           // param no body op consumes
		`"a": 4`,           // identity reads no params
		`"a": 3`,           // filter-less reads no a
		`"limit": 9`,       // identity reads no limit
		`"paramKey": "zz"`, // trunk ops have no params to read
		`"k": 9`,           // max selector reads no k
		`"bound": 2`,       // max selector reads no bound
	} {
		if strings.Contains(s, dead) {
			t.Errorf("canonical form kept dead field %s:\n%s", dead, s)
		}
	}
	if !strings.Contains(s, `"seed": 3`) {
		t.Errorf("canonical form dropped the live seed:\n%s", s)
	}
}

// TestCanonicalizeFileSourceDropsGenerator: a file source's distribution
// and seed are dead and leave the canonical form.
func TestCanonicalizeFileSourceDropsGenerator(t *testing.T) {
	doc := `{"source":{"file":"/tmp/x","rows":0,"distribution":"uniform","seed":9},"pipeline":[{"op":{"name":"x"}}]}`
	out, err := Canonical([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "distribution") || strings.Contains(string(out), "seed") {
		t.Errorf("file source kept generator fields:\n%s", out)
	}
}

// TestSchemaVersion pins accept/reject behaviour for schema_version.
func TestSchemaVersion(t *testing.T) {
	mk := func(v string) string {
		return `{"schema_version":"` + v + `","source":{"rows":5},"pipeline":[{"op":{"name":"x"}}]}`
	}
	for _, ok := range []string{"1.0.0", "1.2.3", "1.10.0"} {
		if _, err := Parse([]byte(mk(ok))); err != nil {
			t.Errorf("schema_version %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"2.0.0", "0.9.0", "1.0", "1", "v1.0.0", "1.00.0", "1.0.x", ""} {
		if bad == "" {
			continue // empty is the implicit current version
		}
		if _, err := Parse([]byte(mk(bad))); err == nil {
			t.Errorf("schema_version %q accepted", bad)
		}
	}
	// Missing version is fine and canonicalizes to the current one.
	out, err := Canonical([]byte(`{"source":{"rows":5},"pipeline":[{"op":{"name":"x"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"schema_version": "1.0.0"`) {
		t.Errorf("canonical form missing schema_version:\n%s", out)
	}
}

// TestGoldenCanonicalFixtures: every committed fixture under
// testdata/canonical is already in canonical form (the same property
// `make specvet` enforces), parses, and compiles.
func TestGoldenCanonicalFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "canonical", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden canonical fixtures")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Canonical(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s is not in canonical form; run mdf plan -write over it.\nwant:\n%s", path, got)
		}
		s, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compile(); err != nil {
			t.Errorf("%s does not compile: %v", path, err)
		}
	}
}
