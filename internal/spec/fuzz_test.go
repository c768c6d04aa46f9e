package spec_test

import (
	"bytes"
	"testing"

	"metadataflow/internal/spec"
)

// FuzzParse ensures the parser never panics on arbitrary input and that any
// document it accepts also compiles to a valid graph, of as many operators
// as Validate counts.
func FuzzParse(f *testing.F) {
	f.Add([]byte(spec.SampleSpec))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"source":{"rows":5},"pipeline":[{"op":{"name":"x"}}]}`))
	f.Add([]byte(`{"source":{"rows":5},"pipeline":[{"explore":{"name":"e",
	  "branches":[{"label":"a"},{"label":"b"}],
	  "body":[{"op":{"name":"y"}}],
	  "choose":{"selector":{"kind":"max"}}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := spec.Parse(data)
		if err != nil {
			return
		}
		g, err := s.Compile()
		if err != nil {
			// A structurally valid spec may still fail graph validation
			// (e.g. degenerate explores); it must fail cleanly.
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("compiled graph invalid: %v", err)
		}
		checkSizes(t, "input", s, g)
	})
}

// FuzzCanonical drives the canonical-form contract on arbitrary input:
// Parse → Canonicalize → Parse must be a fixpoint (a second canonicalization
// is byte-identical), the semantic hash must survive canonicalization
// unchanged — otherwise canonical files and hash-keyed memo tables would
// disagree about spec identity — and the canonical form must compile to the
// same graph, of as many operators as Validate counts, which runs alike
// (TestCompileReadsNormalized's check).
func FuzzCanonical(f *testing.F) {
	f.Add([]byte(spec.SampleSpec))
	f.Add([]byte(`{"source":{"rows":5},"pipeline":[{"op":{"name":"x"}}]}`))
	f.Add([]byte(`{"source":{"file":"/tmp/x","distribution":"uniform","seed":9},"pipeline":[{"op":{"name":"x","a":4,"paramKey":"zz"}}]}`))
	f.Add([]byte(`{"schema_version":"1.2.3","source":{"rows":7,"partitions":2},"pipeline":[
	  {"iterate":{"name":"i","rounds":3,"divergeAboveMeanAbs":10,"op":{"fn":"affine","a":0.5,"b":1,"name":"st"}}},
	  {"explore":{"name":"e",
	    "branches":[{"label":"a","params":{"l":1,"dead":9}},{"label":"b","hint":4,"params":{"l":2}}],
	    "body":[{"op":{"name":"f","fn":"filter-absless","paramKey":"l"}}],
	    "choose":{"evaluator":"ratio","monotone":true,"selector":{"kind":"topk","k":1}}}}]}`))
	f.Add([]byte(`{"allow":["dupbranch"],"source":{"rows":5},"pipeline":[{"op":{"name":"x"}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := spec.Parse(data)
		if err != nil {
			return
		}
		h := s.HashReport().Spec
		c1, err := s.Canonicalize()
		if err != nil {
			// Parse succeeded, so the spec is valid and must canonicalize.
			t.Fatalf("valid spec failed to canonicalize: %v", err)
		}
		s2, err := spec.Parse(c1)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n%s", err, c1)
		}
		c2, err := s2.Canonicalize()
		if err != nil {
			t.Fatalf("canonical form does not recanonicalize: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalize is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", c1, c2)
		}
		if h2 := s2.HashReport().Spec; h2 != h {
			t.Fatalf("hash moved across canonicalization: %s -> %s\n%s", h, h2, c1)
		}
		compileMatchesCanonical(t, "input", data, false)
	})
}
