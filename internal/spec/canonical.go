package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file defines the versioned canonical form of a spec document (see
// ARCHITECTURE.md, "Spec canonical form and plan vetting"). The canonical
// form is the fixpoint of Parse → Canonicalize → Parse:
//
//   - schema_version is always present and set to the current version;
//   - every defaultable field is materialised (partitions, virtualBytes,
//     distribution, op fn, costPerMB, evaluator, selector kind, branch
//     hints); this is the one place the defaults are stated;
//   - dead fields — ones the operator or selector in use never reads, by its
//     row in the vocabulary (vocab.go) — are zeroed so they disappear under
//     omitempty (an affine "limit", a branch param no body op consumes, a
//     max-selector's k);
//   - object keys are sorted lexicographically and the document is
//     rendered with a fixed two-space indent and a trailing newline.
//
// Two specs that differ only in key order, whitespace, or dead fields
// therefore canonicalize to byte-identical documents. The normalized
// structure is what everything downstream reads: the semantic content hash
// (hash.go), Compile (CompileNormalized) and the plan verifier.

// CurrentSchemaVersion is the spec schema version written by Canonicalize
// and the only major version Parse accepts.
const CurrentSchemaVersion = "1.0.0"

// checkSchemaVersion validates an optional schema_version value: empty
// means current; otherwise it must be MAJOR.MINOR.PATCH with the current
// major version (minor/patch differences are backward compatible). It
// allocates only for an error.
func checkSchemaVersion(v string) error {
	if v == "" {
		return nil
	}
	rest := v
	for i := 0; i < 3; i++ {
		p, tail, found := strings.Cut(rest, ".")
		if n, err := strconv.Atoi(p); err != nil || n < 0 || (len(p) > 1 && p[0] == '0') || found != (i < 2) {
			return fmt.Errorf("spec: malformed schema_version %q (want MAJOR.MINOR.PATCH)", v)
		}
		rest = tail
	}
	major, _, _ := strings.Cut(v, ".")
	if current, _, _ := strings.Cut(CurrentSchemaVersion, "."); major != current {
		return fmt.Errorf("spec: unsupported schema_version %q (this build speaks %s)", v, CurrentSchemaVersion)
	}
	return nil
}

// Canonicalize renders the spec in its canonical form: normalized
// structure, sorted keys, two-space indent, trailing newline. It is a
// fixpoint: parsing the result and canonicalizing again is byte-identical.
func (s *Spec) Canonicalize() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(s.Normalized())
	if err != nil {
		return nil, fmt.Errorf("spec: canonicalize: %w", err)
	}
	// Round-trip through interface{} so every object's keys come out
	// lexicographically sorted (encoding/json sorts map keys). UseNumber
	// preserves the exact numeric literals the struct marshal produced.
	var v any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("spec: canonicalize: %w", err)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: canonicalize: %w", err)
	}
	return append(out, '\n'), nil
}

// Normalized returns a deep copy with every default materialised and every
// dead field zeroed: the structure Canonicalize renders, the content hash
// consumes, CompileNormalized builds from and the plan verifier reads, so
// all of them see the same values, not the document's spelling. It is
// idempotent.
func (s *Spec) Normalized() *Spec {
	return &Spec{
		SchemaVersion: CurrentSchemaVersion,
		Name:          s.Name,
		Allow:         normalizeAllow(s.Allow),
		Source:        normalizeSource(s.Source),
		Pipeline:      normalizeSteps(s.Pipeline, true),
	}
}

func normalizeAllow(allow []string) []string {
	if len(allow) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(allow))
	out := make([]string, 0, len(allow))
	for _, a := range allow {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Strings(out)
	return out
}

func normalizeSource(src Source) Source {
	if src.Partitions < 1 {
		src.Partitions = 8
	}
	if src.VirtualBytes <= 0 {
		src.VirtualBytes = 1 << 30
	}
	switch src.Distribution {
	case "uniform", "bimodal":
	default:
		// The generator treats every other value as the normal default.
		src.Distribution = "normal"
	}
	return src
}

// normalizeSteps deep-copies and normalizes a pipeline. trunk marks the
// top-level pipeline, where ParamKey indirection has no params to read and
// is therefore dead.
func normalizeSteps(steps []Step, trunk bool) []Step {
	if steps == nil {
		return nil
	}
	out := make([]Step, len(steps))
	for i, st := range steps {
		switch {
		case st.Op != nil:
			op := normalizeOp(*st.Op, trunk)
			out[i].Op = &op
		case st.Iterate != nil:
			it := *st.Iterate
			it.Op = normalizeOp(it.Op, trunk)
			if it.DivergeAboveMeanAbs <= 0 {
				it.DivergeAboveMeanAbs = 0
			}
			out[i].Iterate = &it
		case st.Explore != nil:
			e := *st.Explore
			e.Body = normalizeSteps(st.Explore.Body, false)
			live := referencedParamKeys(e.Body)
			branches := make([]Branch, len(st.Explore.Branches))
			for j, br := range st.Explore.Branches {
				b := br
				if b.Hint == nil {
					// A missing hint defaults to the branch index.
					h := float64(j)
					b.Hint = &h
				} else {
					h := *br.Hint
					b.Hint = &h
				}
				b.Params = normalizeParams(br.Params, live)
				branches[j] = b
			}
			e.Branches = branches
			e.Choose = normalizeChoose(st.Explore.Choose)
			out[i].Explore = &e
		default:
			out[i] = st // invalid; Validate already rejected it
		}
	}
	return out
}

func normalizeOp(op OpStep, trunk bool) OpStep {
	if op.Fn == "" {
		op.Fn = "identity"
	}
	if op.CostPerMB == 0 {
		op.CostPerMB = 0.001
	}
	if op.FixedCost <= 0 {
		op.FixedCost = 0
	}
	// Zero the parameters the operator function never reads, and ParamKey
	// where it overrides nothing — on the trunk there are no branch params
	// for it to read.
	row := Ops[op.Fn]
	if row.Reads&ParamA == 0 {
		op.A = 0
	}
	if row.Reads&ParamB == 0 {
		op.B = 0
	}
	if row.Reads&ParamLimit == 0 {
		op.Limit = 0
	}
	if row.Keyed == 0 || trunk {
		op.ParamKey = ""
	}
	return op
}

// referencedParamKeys collects the ParamKey values the body's own operators
// consume. Nested explores are excluded: Compile passes each nested
// branch's params to its body, not the enclosing branch's, so a key only
// read inside a nested explore is dead at this level.
func referencedParamKeys(body []Step) map[string]bool {
	keys := make(map[string]bool)
	for _, st := range body {
		switch {
		case st.Op != nil && st.Op.ParamKey != "":
			keys[st.Op.ParamKey] = true
		case st.Iterate != nil && st.Iterate.Op.ParamKey != "":
			keys[st.Iterate.Op.ParamKey] = true
		}
	}
	return keys
}

func normalizeParams(params map[string]float64, live map[string]bool) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range params {
		if live[k] {
			out[k] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func normalizeChoose(c Choose) Choose {
	if c.Evaluator == "" {
		c.Evaluator = "size"
	}
	c.Selector = normalizeSelector(c.Selector)
	return c
}

func normalizeSelector(sel Selector) Selector {
	if sel.Kind == "" {
		sel.Kind = "max"
	}
	// Zero the parameters the selector never reads, and clamp a K it does
	// read to at least one branch.
	reads := Selectors[sel.Kind].Reads
	if reads&SelectK != 0 {
		sel.K = max(1, sel.K)
	} else {
		sel.K = 0
	}
	if reads&SelectBound == 0 {
		sel.Bound, sel.AtMost = 0, false
	}
	if reads&SelectRange == 0 {
		sel.Lo, sel.Hi = 0, 0
	}
	return sel
}
