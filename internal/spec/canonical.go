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
//   - every defaultable field is materialised to the value Compile would
//     use (partitions, virtualBytes, distribution, op fn, costPerMB,
//     evaluator, selector kind, branch hints);
//   - dead fields — ones Compile never reads for the operator or selector
//     variant in use — are zeroed so they disappear under omitempty (an
//     affine "limit", a file source's distribution and seed, a branch
//     param no body op consumes, a max-selector's k);
//   - object keys are sorted lexicographically and the document is
//     rendered with a fixed two-space indent and a trailing newline.
//
// Two specs that differ only in key order, whitespace, or dead fields
// therefore canonicalize to byte-identical documents, and the semantic
// content hash (hash.go) is computed from the same normalized structure.

// CurrentSchemaVersion is the spec schema version written by Canonicalize
// and the only major version Parse accepts.
const CurrentSchemaVersion = "1.0.0"

// checkSchemaVersion validates an optional schema_version value: empty
// means current; otherwise it must be MAJOR.MINOR.PATCH with the current
// major version (minor/patch differences are backward compatible).
func checkSchemaVersion(v string) error {
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ".")
	if len(parts) != 3 {
		return fmt.Errorf("spec: malformed schema_version %q (want MAJOR.MINOR.PATCH)", v)
	}
	for _, p := range parts {
		if n, err := strconv.Atoi(p); err != nil || n < 0 || (len(p) > 1 && p[0] == '0') {
			return fmt.Errorf("spec: malformed schema_version %q (want MAJOR.MINOR.PATCH)", v)
		}
	}
	if major := parts[0]; major != strings.SplitN(CurrentSchemaVersion, ".", 2)[0] {
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
	raw, err := json.Marshal(s.normalized())
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

// Canonical parses a document and returns its canonical form; it is the
// one-call path used by mdf plan -canonical and -write.
func Canonical(data []byte) ([]byte, error) {
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return s.Canonicalize()
}

// Normalized returns a deep copy with every default materialised and every
// dead field zeroed — the structure Canonicalize renders and the content
// hash consumes. Static analyses (internal/plan) operate on it so they see
// the values Compile will actually use, not the document's spelling.
func (s *Spec) Normalized() *Spec {
	return s.normalized()
}

// normalized returns a deep copy with every default materialised and every
// dead field zeroed. It is idempotent; both Canonicalize and the content
// hash operate on its output.
func (s *Spec) normalized() *Spec {
	n := &Spec{
		SchemaVersion: CurrentSchemaVersion,
		Name:          s.Name,
		Allow:         normalizeAllow(s.Allow),
		Source:        normalizeSource(s.Source),
		Pipeline:      normalizeSteps(s.Pipeline, true),
	}
	return n
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
	if src.File != "" {
		// A file source never consults the generator knobs.
		src.Distribution, src.Seed = "", 0
	} else {
		switch src.Distribution {
		case "uniform", "bimodal":
		default:
			// Compile treats every other value as the normal default.
			src.Distribution = "normal"
		}
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
					// Compile defaults a missing hint to the branch index.
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
	// Zero the parameters the operator function never reads.
	switch op.Fn {
	case "affine":
		op.Limit = 0
	case "filter-less", "filter-greater", "filter-absless":
		op.A, op.B = 0, 0
	default:
		op.A, op.B, op.Limit, op.ParamKey = 0, 0, 0, ""
	}
	// On the trunk there are no branch params for ParamKey to read.
	if trunk {
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
	// Zero the parameters the selector variant never reads, and clamp K the
	// way the selector constructors do (max(1, K)).
	switch sel.Kind {
	case "topk", "bottomk":
		sel.K = max(1, sel.K)
		sel.Bound, sel.AtMost, sel.Lo, sel.Hi = 0, false, 0, 0
	case "threshold":
		sel.K, sel.Lo, sel.Hi = 0, 0, 0
	case "kthreshold":
		sel.K = max(1, sel.K)
		sel.Lo, sel.Hi = 0, 0
	case "interval":
		sel.K, sel.Bound, sel.AtMost = 0, 0, false
	case "kinterval":
		sel.K = max(1, sel.K)
		sel.Bound, sel.AtMost = 0, false
	default: // min, max, mode
		sel.K, sel.Bound, sel.AtMost, sel.Lo, sel.Hi = 0, 0, false, 0, 0
	}
	return sel
}
