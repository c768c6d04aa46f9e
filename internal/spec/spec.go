// Package spec compiles a declarative JSON description of a meta-dataflow
// into an executable graph. The vocabulary covers generic numeric operators
// (affine maps, filters, normalisation), the paper's evaluator and selection
// functions, and arbitrarily nested explore/choose scopes, so exploratory
// workflows can be described, versioned and executed without writing Go.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/stats"
)

// Spec is the root document.
type Spec struct {
	// SchemaVersion is the spec schema version ("MAJOR.MINOR.PATCH").
	// Empty means the current version; a major version other than the
	// current one is rejected. The canonical form always carries it.
	SchemaVersion string `json:"schema_version,omitempty"`
	// Name labels the job. It is metadata: excluded from the content hash.
	Name string `json:"name,omitempty"`
	// Allow suppresses plan-verifier rules by name for the whole document
	// (the JSON analogue of mdf lint's //lint:allow escapes; see
	// internal/plan). Metadata: excluded from the content hash.
	Allow []string `json:"allow,omitempty"`
	// Source describes the generated input dataset.
	Source Source `json:"source"`
	// Pipeline is the sequence of steps after the source.
	Pipeline []Step `json:"pipeline"`
}

// Source configures the input dataset: either a synthetic generator (Rows
// plus Distribution) or a local file of newline-separated float64 values
// (File), in which case Rows caps how many values are read (0 = all).
type Source struct {
	// File, when set, reads newline-separated float64 values from disk.
	File string `json:"file,omitempty"`
	// Rows is the number of rows to generate (or a cap when File is set).
	Rows int `json:"rows"`
	// Partitions is the dataset partition count (default 8).
	Partitions int `json:"partitions"`
	// VirtualBytes is the accounted size (default 1 GiB).
	VirtualBytes int64 `json:"virtualBytes"`
	// Distribution is "normal" (default), "uniform" or "bimodal".
	Distribution string `json:"distribution,omitempty"`
	// Seed drives the generator.
	Seed int64 `json:"seed,omitempty"`
}

// Step is a plain operator (Op), an exploration scope (Explore), or an
// unrolled iteration (Iterate); exactly one must be present.
type Step struct {
	Op      *OpStep      `json:"op,omitempty"`
	Explore *ExploreStep `json:"explore,omitempty"`
	Iterate *IterateStep `json:"iterate,omitempty"`
}

// IterateStep unrolls an operator for a fixed number of rounds with an
// optional in-loop termination check (§3.2): when the mean absolute value
// of the intermediate result exceeds DivergeAboveMeanAbs, the remaining
// rounds are skipped at negligible cost.
type IterateStep struct {
	// Name labels the iteration's operators.
	Name string `json:"name"`
	// Rounds is the unrolled round count.
	Rounds int `json:"rounds"`
	// Op is applied once per round.
	Op OpStep `json:"op"`
	// DivergeAboveMeanAbs terminates the branch once exceeded; 0 disables.
	DivergeAboveMeanAbs float64 `json:"divergeAboveMeanAbs,omitempty"`
}

// OpStep is one operator application.
type OpStep struct {
	// Name labels the operator.
	Name string `json:"name"`
	// Fn selects the operator function: "identity", "affine" (a·x+b),
	// "square", "abs", "filter-less", "filter-greater", "filter-absless",
	// "normalize" (wide), "standardize" (wide).
	Fn string `json:"fn"`
	// A and B parameterise affine; Limit parameterises the filters. When
	// ParamKey is set inside an explore body, the branch's parameter with
	// that key overrides Limit/A.
	A        float64 `json:"a,omitempty"`
	B        float64 `json:"b,omitempty"`
	Limit    float64 `json:"limit,omitempty"`
	ParamKey string  `json:"paramKey,omitempty"`
	// CostPerMB is the virtual compute cost (default 0.001).
	CostPerMB float64 `json:"costPerMB,omitempty"`
	// FixedCost is an optional fixed virtual cost in seconds.
	FixedCost float64 `json:"fixedCost,omitempty"`
}

// ExploreStep is an exploration scope.
type ExploreStep struct {
	// Name labels the explore operator.
	Name string `json:"name"`
	// Branches lists the explorable settings.
	Branches []Branch `json:"branches"`
	// Body is the per-branch pipeline (may contain nested explores).
	Body []Step `json:"body"`
	// Choose closes the scope.
	Choose Choose `json:"choose"`
}

// Branch is one explorable setting.
type Branch struct {
	// Label names the setting.
	Label string `json:"label"`
	// Hint orders branches for sorted scheduling; defaults to the value of
	// Params[the first body op's ParamKey] or the branch index.
	Hint *float64 `json:"hint,omitempty"`
	// Params carries named parameter values consumed via OpStep.ParamKey.
	Params map[string]float64 `json:"params,omitempty"`
}

// Choose configures the scope's choose operator.
type Choose struct {
	// Evaluator is "size", "ratio" (rows / source rows), "mean",
	// "neg-mean-abs" or "stddev".
	Evaluator string `json:"evaluator"`
	// Monotone and Convex declare the evaluator's shape over the ordered
	// branches (Tab. 1).
	Monotone bool `json:"monotone,omitempty"`
	Convex   bool `json:"convex,omitempty"`
	// Selector picks the surviving branches.
	Selector Selector `json:"selector"`
	// CostPerMB is the evaluator's virtual compute cost.
	CostPerMB float64 `json:"costPerMB,omitempty"`
}

// Selector configures a selection function.
type Selector struct {
	// Kind is "topk", "bottomk", "min", "max", "threshold", "interval",
	// "kthreshold", "kinterval" or "mode".
	Kind string `json:"kind"`
	// K parameterises the k-variants.
	K int `json:"k,omitempty"`
	// Bound parameterises threshold/kthreshold; AtMost flips direction.
	Bound  float64 `json:"bound,omitempty"`
	AtMost bool    `json:"atMost,omitempty"`
	// Lo and Hi parameterise interval/kinterval.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
}

// Parse decodes a JSON document into a Spec. Decoding is strict: a field
// the schema does not define is an error, not silently dropped, so a typo
// like "partitons" fails the submission instead of running the job with a
// default the author never chose. Decode errors carry the offending
// line:column position so a bad spec points at itself, not at a byte
// offset the author would have to count.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		line, col := lineCol(data, decodeOffset(err, dec))
		return nil, fmt.Errorf("spec: line %d, column %d: %w", line, col, err)
	}
	// A second document after the first is a malformed spec, not trailing
	// input to ignore.
	if dec.More() {
		line, col := lineCol(data, dec.InputOffset())
		return nil, fmt.Errorf("spec: line %d, column %d: trailing data after document", line, col)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// decodeOffset extracts the byte offset of a json.Decoder error. The two
// typed errors carry the exact offset; everything else (e.g. the unknown-
// field error, which encoding/json reports as a bare string) falls back to
// the decoder's input offset, which points just past the offending token.
func decodeOffset(err error, dec *json.Decoder) int64 {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return syn.Offset
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return typ.Offset
	}
	return dec.InputOffset()
}

// lineCol translates a byte offset into 1-based line and column numbers.
// Offsets past the end of the document clamp to its last byte.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	if offset < 0 {
		offset = 0
	}
	line, col = 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// Validate reports structural errors.
func (s *Spec) Validate() error {
	if err := checkSchemaVersion(s.SchemaVersion); err != nil {
		return err
	}
	if s.Source.Rows < 1 && s.Source.File == "" {
		return fmt.Errorf("spec: source needs rows >= 1 or a file")
	}
	if len(s.Pipeline) == 0 {
		return fmt.Errorf("spec: empty pipeline")
	}
	return validateSteps(s.Pipeline)
}

func validateSteps(steps []Step) error {
	for i, st := range steps {
		set := 0
		for _, present := range []bool{st.Op != nil, st.Explore != nil, st.Iterate != nil} {
			if present {
				set++
			}
		}
		if set != 1 {
			return fmt.Errorf("spec: step %d must set exactly one of op, explore, iterate", i)
		}
		switch {
		case st.Op != nil:
			if _, err := opFunc(*st.Op, nil); err != nil {
				return err
			}
		case st.Iterate != nil:
			if st.Iterate.Rounds < 1 {
				return fmt.Errorf("spec: iterate %q needs >= 1 round", st.Iterate.Name)
			}
			if _, err := opFunc(st.Iterate.Op, nil); err != nil {
				return err
			}
		case st.Explore != nil:
			e := st.Explore
			if len(e.Branches) < 2 {
				return fmt.Errorf("spec: explore %q needs >= 2 branches", e.Name)
			}
			if len(e.Body) == 0 {
				return fmt.Errorf("spec: explore %q has an empty body", e.Name)
			}
			if _, err := selector(e.Choose.Selector); err != nil {
				return err
			}
			if _, err := evaluator(e.Choose, 1); err != nil {
				return err
			}
			if err := validateSteps(e.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// Compile builds the executable MDF graph.
func (s *Spec) Compile() (*graph.Graph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := mdf.NewBuilder()
	node := b.Source("src", sourceFunc(s.Source), 0.0005)
	node, err := compileSteps(node, s.Pipeline, s.Source.Rows, nil)
	if err != nil {
		return nil, err
	}
	_ = node
	return b.Build()
}

func compileSteps(node *mdf.Node, steps []Step, sourceRows int, params map[string]float64) (*mdf.Node, error) {
	for _, st := range steps {
		switch {
		case st.Op != nil:
			fn, err := opFunc(*st.Op, params)
			if err != nil {
				return nil, err
			}
			cost := st.Op.CostPerMB
			if cost == 0 {
				cost = 0.001
			}
			var dep func(string, graph.TransformFunc, float64) *mdf.Node
			if st.Op.Fn == "normalize" || st.Op.Fn == "standardize" {
				dep = node.ThenWide
			} else {
				dep = node.Then
			}
			node = dep(st.Op.Name, fn, cost)
			if st.Op.FixedCost > 0 {
				node.Op().FixedCost = st.Op.FixedCost
			}
		case st.Iterate != nil:
			it := st.Iterate
			fn, err := opFunc(it.Op, params)
			if err != nil {
				return nil, err
			}
			cost := it.Op.CostPerMB
			if cost == 0 {
				cost = 0.001
			}
			node = node.Iterate(mdf.IterationSpec{
				Name:      it.Name,
				Rounds:    it.Rounds,
				CostPerMB: cost,
				Step: func(round int, d *dataset.Dataset) (*dataset.Dataset, error) {
					return fn([]*dataset.Dataset{d})
				},
				Diverged: func(round int, d *dataset.Dataset) bool {
					if it.DivergeAboveMeanAbs <= 0 {
						return false
					}
					xs := dataset.Flatten[float64](d)
					if len(xs) == 0 {
						return false
					}
					var sum float64
					for _, x := range xs {
						sum += math.Abs(x)
					}
					return sum/float64(len(xs)) > it.DivergeAboveMeanAbs
				},
			})
		case st.Explore != nil:
			e := st.Explore
			ev, err := evaluator(e.Choose, sourceRows)
			if err != nil {
				return nil, err
			}
			sel, err := selector(e.Choose.Selector)
			if err != nil {
				return nil, err
			}
			specs := make([]mdf.BranchSpec, len(e.Branches))
			for i, br := range e.Branches {
				hint := float64(i)
				if br.Hint != nil {
					hint = *br.Hint
				}
				specs[i] = mdf.BranchSpec{Label: br.Label, Hint: hint}
			}
			var compileErr error
			node = node.Explore(e.Name, specs, mdf.NewChooser(ev, sel),
				func(start *mdf.Node, bs mdf.BranchSpec) *mdf.Node {
					var brParams map[string]float64
					for i, br := range e.Branches {
						if br.Label == bs.Label && specs[i].Hint == bs.Hint {
							brParams = br.Params
							break
						}
					}
					end, err := compileSteps(start, e.Body, sourceRows, brParams)
					if err != nil && compileErr == nil {
						compileErr = err
					}
					return end
				})
			if compileErr != nil {
				return nil, compileErr
			}
		}
	}
	return node, nil
}

func sourceFunc(src Source) graph.TransformFunc {
	parts := src.Partitions
	if parts < 1 {
		parts = 8
	}
	vbytes := src.VirtualBytes
	if vbytes <= 0 {
		vbytes = 1 << 30
	}
	if src.File != "" {
		return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
			if len(ins) != 0 {
				return nil, fmt.Errorf("spec: source received %d inputs", len(ins))
			}
			rows, err := readFloatFile(src.File, src.Rows)
			if err != nil {
				return nil, err
			}
			d := dataset.FromSlice("src", rows, parts, 8)
			d.SetVirtualBytes(vbytes)
			return d, nil
		}
	}
	return mdf.SourceFunc(func() *dataset.Dataset {
		rng := stats.NewRNG(src.Seed)
		rows := make([]float64, src.Rows)
		for i := range rows {
			switch src.Distribution {
			case "uniform":
				rows[i] = rng.Uniform(-1, 1)
			case "bimodal":
				if rng.Float64() < 0.5 {
					rows[i] = rng.Normal(-2, 0.5)
				} else {
					rows[i] = rng.Normal(2, 0.5)
				}
			default:
				rows[i] = rng.Normal(0, 1)
			}
		}
		d := dataset.FromSlice("src", rows, parts, 8)
		d.SetVirtualBytes(vbytes)
		return d
	})
}

// opFunc resolves an operator step to a transform; params override Limit/A
// via ParamKey.
func opFunc(op OpStep, params map[string]float64) (graph.TransformFunc, error) {
	pv := func(def float64) float64 {
		if op.ParamKey != "" {
			if v, ok := params[op.ParamKey]; ok {
				return v
			}
		}
		return def
	}
	switch op.Fn {
	case "identity", "":
		return mdf.Identity(op.Name), nil
	case "affine":
		return mdf.Map(op.Name, 1.0, func(v float64) float64 {
			return pv(op.A)*v + op.B
		}), nil
	case "square":
		return mdf.Map(op.Name, 1.0, func(v float64) float64 {
			return v * v
		}), nil
	case "abs":
		return mdf.Map(op.Name, 1.0, math.Abs), nil
	case "filter-less":
		return mdf.Filter(op.Name, func(v float64) bool {
			return v < pv(op.Limit)
		}), nil
	case "filter-greater":
		return mdf.Filter(op.Name, func(v float64) bool {
			return v > pv(op.Limit)
		}), nil
	case "filter-absless":
		return mdf.Filter(op.Name, func(v float64) bool {
			return math.Abs(v) < pv(op.Limit)
		}), nil
	case "normalize":
		return normalizeFn(op.Name), nil
	case "standardize":
		return standardizeFn(op.Name), nil
	}
	return nil, fmt.Errorf("spec: unknown op fn %q", op.Fn)
}

func normalizeFn(name string) graph.TransformFunc {
	return mdf.WholeDataset(name, func(in *dataset.Dataset) (*dataset.Dataset, error) {
		xs := dataset.Flatten[float64](in)
		if len(xs) == 0 {
			return in, nil
		}
		lo, hi := stats.MinMax(xs)
		span := hi - lo
		if span == 0 {
			span = 1
		}
		return mdf.Map(name, 1.0, func(v float64) float64 {
			return (v - lo) / span
		})([]*dataset.Dataset{in})
	})
}

func standardizeFn(name string) graph.TransformFunc {
	return mdf.WholeDataset(name, func(in *dataset.Dataset) (*dataset.Dataset, error) {
		xs := dataset.Flatten[float64](in)
		if len(xs) == 0 {
			return in, nil
		}
		mean, std := stats.Mean(xs), stats.StdDev(xs)
		if std == 0 {
			std = 1
		}
		return mdf.Map(name, 1.0, func(v float64) float64 {
			return (v - mean) / std
		})([]*dataset.Dataset{in})
	})
}

// readFloatFile loads newline-separated float64 values; cap limits the row
// count when positive.
func readFloatFile(path string, cap int) ([]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var rows []float64
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: %w", path, err)
		}
		rows = append(rows, v)
		if cap > 0 && len(rows) >= cap {
			break
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("spec: %s contains no values", path)
	}
	return rows, nil
}

func evaluator(c Choose, sourceRows int) (mdf.Evaluator, error) {
	var ev mdf.Evaluator
	switch c.Evaluator {
	case "size", "":
		ev = mdf.SizeEvaluator()
	case "ratio":
		ev = mdf.RatioEvaluator(sourceRows)
	case "mean":
		ev = mdf.FuncEvaluator("mean", func(d *dataset.Dataset) float64 {
			xs := dataset.Flatten[float64](d)
			if len(xs) == 0 {
				return math.Inf(-1) // empty results (e.g. terminated iterations) rank last
			}
			return stats.Mean(xs)
		})
	case "neg-mean-abs":
		ev = mdf.FuncEvaluator("neg-mean-abs", func(d *dataset.Dataset) float64 {
			xs := dataset.Flatten[float64](d)
			if len(xs) == 0 {
				return math.Inf(-1)
			}
			var s float64
			for _, x := range xs {
				s += math.Abs(x)
			}
			return -s / float64(len(xs))
		})
	case "stddev":
		ev = mdf.FuncEvaluator("stddev", func(d *dataset.Dataset) float64 {
			xs := dataset.Flatten[float64](d)
			if len(xs) == 0 {
				return math.Inf(-1)
			}
			return stats.StdDev(xs)
		})
	default:
		return ev, fmt.Errorf("spec: unknown evaluator %q", c.Evaluator)
	}
	ev.Monotone = c.Monotone
	ev.Convex = c.Convex
	ev.CostPerMB = c.CostPerMB
	return ev, nil
}

func selector(s Selector) (mdf.Selector, error) {
	switch s.Kind {
	case "topk":
		return mdf.TopK(max(1, s.K)), nil
	case "bottomk":
		return mdf.BottomK(max(1, s.K)), nil
	case "min":
		return mdf.Min(), nil
	case "max", "":
		return mdf.Max(), nil
	case "threshold":
		return mdf.Threshold(s.Bound, s.AtMost), nil
	case "interval":
		return mdf.Interval(s.Lo, s.Hi), nil
	case "kthreshold":
		return mdf.KThreshold(max(1, s.K), s.Bound, s.AtMost), nil
	case "kinterval":
		return mdf.KInterval(max(1, s.K), s.Lo, s.Hi), nil
	case "mode":
		return mdf.Mode(), nil
	}
	return nil, fmt.Errorf("spec: unknown selector %q", s.Kind)
}
