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

// Source configures the generated input dataset.
type Source struct {
	// Rows is the number of rows to generate.
	Rows int `json:"rows"`
	// Partitions is the dataset partition count, and VirtualBytes its
	// accounted size; unset, each takes its default (normalizeSource).
	Partitions   int   `json:"partitions"`
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
	// Fn selects the operator function, one row of Ops (vocab.go); unset
	// means identity.
	Fn string `json:"fn"`
	// A, B and Limit parameterise the functions that read them (affine a·x+b,
	// the filters' limit). When ParamKey is set inside an explore body, the
	// branch's parameter with that key overrides the one the row names
	// (Resolve).
	A        float64 `json:"a,omitempty"`
	B        float64 `json:"b,omitempty"`
	Limit    float64 `json:"limit,omitempty"`
	ParamKey string  `json:"paramKey,omitempty"`
	// CostPerMB is the virtual compute cost; unset, it takes the default
	// (normalizeOp).
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
	// Hint orders branches for sorted scheduling; unset means the branch's
	// index.
	Hint *float64 `json:"hint,omitempty"`
	// Params carries named parameter values consumed via OpStep.ParamKey.
	Params map[string]float64 `json:"params,omitempty"`
}

// Choose configures the scope's choose operator.
type Choose struct {
	// Evaluator names a row of Evaluators (vocab.go); unset means size.
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
	// Kind names a row of Selectors (vocab.go); unset means max.
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
	// Anything but whitespace after the document — a second one, a stray
	// bracket — makes a malformed spec, not trailing input to ignore.
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		line, col := lineCol(data, int64(len(data)-len(rest)))
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

// The bounds of the source's sizes. A source is generated in full by every
// job that runs it, into one column of Rows float64 values cut into one
// block of Partitions partitions, so an unbounded value is a document of a
// few hundred bytes that exhausts the memory of the process running it. The
// largest committed values, over the examples, the canonical and plan
// fixtures, both fuzz corpora and the host-time benchmark's service mix, are
// 20 000 rows (examples/specs/outlier.json) and 1 024 partitions
// (internal/plan/testdata/infeasible-quota.json); each bound leaves room
// above them while keeping a source under 8 MiB of values and 256 KiB of
// partitions.
const (
	maxSourceRows       = 1 << 20
	maxSourcePartitions = 1 << 12
)

// maxOps bounds the operators a document compiles to. An explore compiles
// its body once per branch, so nested explores multiply: a four-level,
// 16-wide document of 3.5 KB compiles to 78 644 operators, and vetting and
// planning it allocate over 100 MB, a five-level one 2.2 GB. The committed
// documents are far below the bound: at most 11 operators over the
// examples, the plan verifier's fixtures, the canonical goldens and the
// fuzz corpora (TestCompileReadsNormalized), and 131 in the host-time
// benchmark's service mix. The bound admits a flat explore of 4 096
// branches with three-operator bodies, the widest the engine's scaling
// measurements run, and three nested 16-wide levels (9 011). Vetting and
// planning 16 384 operators of one iterate took 23 ms and 8.8 MB, the
// three nested levels 19 ms and 8.2 MB (a 2-vCPU container).
const maxOps = 1 << 14

// maxStages bounds the stages of the plan a document compiles to, and
// maxLeaves its leaf branches: the branches of explores whose body holds no
// explore, each a configuration a choose scores. A stage, not an operator,
// is what a run pays for per step: its place in the ready list and the
// scheduler's candidates, its stage edges, its partitions' residency. The
// operator bound bounds both only loosely, because the narrow operators of
// a chain share one stage while a wide one adds a stage per branch. The
// committed documents have at most 11 stages and 5 leaf branches
// (TestCompileReadsNormalized), the host-time benchmark's service mix 101
// stages and 30 leaf branches. maxLeaves is the widest explore the
// engine's scaling measurements run, and maxStages three stages for each of
// its branches: it admits BenchmarkStep's widest plan, 4 096 branches of two
// stages each (8 196 stages), and the three nested 16-wide levels (4 096
// leaf branches in 4 915 stages).
const (
	maxStages = 3 << 12
	maxLeaves = 1 << 12
)

// LimitError refuses a source size, or a document's operator, stage or leaf
// branch count, above its bound.
type LimitError struct {
	// Field is the JSON path of the size, "source.rows" or
	// "source.partitions"; or, for a count of what the document compiles
	// to, "operators", "stages" or "leaf branches".
	Field string
	// Path is, for a count, the JSON path of the step at which the count
	// passes Max, such as "pipeline[1].explore.body[0]": the count up to
	// and including it, within one branch of each explore around it.
	Path       string
	Value, Max int
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("spec: the %s up to %s number %d, above the limit of %d", e.Field, e.Path, e.Value, e.Max)
	}
	return fmt.Sprintf("spec: %s = %d is above the limit of %d", e.Field, e.Value, e.Max)
}

// Validate reports structural errors, and refuses a document that compiles
// to more than maxOps operators, maxStages stages or maxLeaves leaf
// branches. It allocates nothing on a valid spec: admission runs it on
// every new document.
func (s *Spec) Validate() error {
	_, err := s.validate()
	return err
}

// size is what a run of steps compiles to, counted over the step tree
// before anything is compiled.
type size struct {
	// ops is the operator count, graph.Graph.NumOps of the Compile: the
	// source, one per op, one per round of an iterate, and per explore its
	// own and its choose's two plus its branches times its body's count.
	ops int
	// stages is the plan's stage count, len(graph.Plan.Stages): an explore
	// and a choose are a stage each, and an op or an iterate starts one
	// unless it continues the chain before it (open), which a wide op
	// never does.
	stages int
	// leaves counts the leaf branches: per explore, its branches times its
	// body's leaves, or times one when the body has none.
	leaves int
	// open is whether the last operator so far ends a chain that a narrow
	// operator joins: the source, an op or an iterate's last round, but
	// neither an explore nor a choose.
	open bool
}

// validate is Validate, and returns what the document compiles to.
func (s *Spec) validate() (size, error) {
	if err := checkSchemaVersion(s.SchemaVersion); err != nil {
		return size{}, err
	}
	if s.Source.Rows < 1 {
		return size{}, fmt.Errorf("spec: source needs rows >= 1")
	}
	if s.Source.Rows > maxSourceRows {
		return size{}, &LimitError{Field: "source.rows", Value: s.Source.Rows, Max: maxSourceRows}
	}
	if s.Source.Partitions > maxSourcePartitions {
		return size{}, &LimitError{Field: "source.partitions", Value: s.Source.Partitions, Max: maxSourcePartitions}
	}
	if len(s.Pipeline) == 0 {
		return size{}, fmt.Errorf("spec: empty pipeline")
	}
	sz, err := validateSteps(s.Pipeline, size{ops: 1, stages: 1, open: true})
	if lim, ok := err.(*LimitError); ok {
		lim.Path = "pipeline" + lim.Path
	}
	return sz, err
}

// validateSteps checks steps and returns sz plus what they compile to. Past
// a bound it returns a LimitError whose Path is the step's, relative to
// steps ("[2]", "[0].explore.body[1]").
func validateSteps(steps []Step, sz size) (size, error) {
	for i, st := range steps {
		set := 0
		for _, present := range []bool{st.Op != nil, st.Explore != nil, st.Iterate != nil} {
			if present {
				set++
			}
		}
		if set != 1 {
			return size{}, fmt.Errorf("spec: step %d must set exactly one of op, explore, iterate", i)
		}
		switch {
		case st.Op != nil:
			if err := validateOp(*st.Op); err != nil {
				return size{}, err
			}
			sz.ops++
			if !sz.open || Ops[st.Op.Fn].Wide {
				sz.stages++
			}
			sz.open = true
		case st.Iterate != nil:
			if st.Iterate.Rounds < 1 {
				return size{}, fmt.Errorf("spec: iterate %q needs >= 1 round", st.Iterate.Name)
			}
			if err := validateOp(st.Iterate.Op); err != nil {
				return size{}, err
			}
			// Every round is a narrow operator, whatever its fn.
			sz.ops = addCount(sz.ops, 1, st.Iterate.Rounds)
			if !sz.open {
				sz.stages++
			}
			sz.open = true
		case st.Explore != nil:
			e := st.Explore
			if len(e.Branches) < 2 {
				return size{}, fmt.Errorf("spec: explore %q needs >= 2 branches", e.Name)
			}
			if len(e.Body) == 0 {
				return size{}, fmt.Errorf("spec: explore %q has an empty body", e.Name)
			}
			if _, ok := Selectors[e.Choose.Selector.Kind]; !ok && e.Choose.Selector.Kind != "" {
				return size{}, fmt.Errorf("spec: unknown selector %q", e.Choose.Selector.Kind)
			}
			if _, ok := Evaluators[e.Choose.Evaluator]; !ok && e.Choose.Evaluator != "" {
				return size{}, fmt.Errorf("spec: unknown evaluator %q", e.Choose.Evaluator)
			}
			// A branch's first operator follows the explore, so it starts a
			// stage.
			body, err := validateSteps(e.Body, size{})
			if lim, ok := err.(*LimitError); ok {
				lim.Path = fmt.Sprintf("[%d].explore.body%s", i, lim.Path)
			}
			if err != nil {
				return size{}, err
			}
			n := len(e.Branches)
			sz.ops = addCount(sz.ops+2, n, body.ops)
			sz.stages = addCount(sz.stages+2, n, body.stages)
			sz.leaves = addCount(sz.leaves, n, max(body.leaves, 1))
			sz.open = false
		}
		for _, c := range []struct {
			field      string
			value, max int
		}{{"operators", sz.ops, maxOps}, {"stages", sz.stages, maxStages}, {"leaf branches", sz.leaves, maxLeaves}} {
			if c.value > c.max {
				return size{}, &LimitError{Field: c.field, Path: fmt.Sprintf("[%d]", i), Value: c.value, Max: c.max}
			}
		}
	}
	return sz, nil
}

// addCount returns c + k·n, or math.MaxInt where that overflows: c is at
// most a bound plus 2, but rounds and branches may make a count any int.
func addCount(c, k, n int) int {
	if n > 0 && k > (math.MaxInt-c)/n {
		return math.MaxInt
	}
	return c + k*n
}

func validateOp(op OpStep) error {
	if _, ok := Ops[op.Fn]; !ok && op.Fn != "" {
		return fmt.Errorf("spec: unknown op fn %q", op.Fn)
	}
	return nil
}

// Compile builds the executable MDF graph: it validates the spec, normalises
// it, and compiles the normalised form.
func (s *Spec) Compile() (*graph.Graph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return CompileNormalized(s.Normalized())
}

// CompileNormalized is Compile for a caller that already holds
// n = s.Normalized() of a valid s — the plan verifier and the service's
// admission memo do — and so normalises once. Every default is materialised
// and every name has a row in the vocabulary (vocab.go), so the graph is
// built from n's values as they stand.
func CompileNormalized(n *Spec) (*graph.Graph, error) {
	b := mdf.NewBuilder()
	compileSteps(b.Source("src", sourceFunc(n.Source), 0.0005), n.Pipeline, n.Source.Rows, nil)
	return b.Build()
}

func compileSteps(node *mdf.Node, steps []Step, sourceRows int, params map[string]float64) *mdf.Node {
	for _, st := range steps {
		switch {
		case st.Op != nil:
			op := Resolve(*st.Op, params)
			row := Ops[op.Fn]
			then := node.Then
			if row.Wide {
				then = node.ThenWide
			}
			node = then(op.Name, row.build(op), op.CostPerMB)
			if op.FixedCost > 0 {
				node.Op().FixedCost = op.FixedCost
			}
		case st.Iterate != nil:
			it := st.Iterate
			op := Resolve(it.Op, params)
			fn := Ops[op.Fn].build(op)
			node = node.Iterate(mdf.IterationSpec{
				Name:      it.Name,
				Rounds:    it.Rounds,
				CostPerMB: op.CostPerMB,
				Step: func(round int, d *dataset.Dataset) (*dataset.Dataset, error) {
					return fn([]*dataset.Dataset{d})
				},
				Diverged: diverged(it.DivergeAboveMeanAbs),
			})
		case st.Explore != nil:
			e := st.Explore
			c := e.Choose
			ev := Evaluators[c.Evaluator].build(sourceRows)
			ev.Monotone, ev.Convex, ev.CostPerMB = c.Monotone, c.Convex, c.CostPerMB
			sel := Selectors[c.Selector.Kind].build(c.Selector)
			specs := make([]mdf.BranchSpec, len(e.Branches))
			for i, br := range e.Branches {
				specs[i] = mdf.BranchSpec{Label: br.Label, Hint: *br.Hint}
			}
			// The builder builds the branches in order, so the j-th call
			// builds branch j, under that branch's own params.
			j := 0
			node = node.Explore(e.Name, specs, mdf.NewChooser(ev, sel),
				func(start *mdf.Node, _ mdf.BranchSpec) *mdf.Node {
					params := e.Branches[j].Params
					j++
					return compileSteps(start, e.Body, sourceRows, params)
				})
		}
	}
	return node
}

// diverged is an iteration's divergence test: the mean absolute value of a
// round's output exceeds limit, when limit is positive. It captures nothing
// of the branch, and with no limit it is nil, which never diverges.
func diverged(limit float64) func(int, *dataset.Dataset) bool {
	if limit <= 0 {
		return nil
	}
	return func(round int, d *dataset.Dataset) bool {
		xs := dataset.Flatten[float64](d)
		if len(xs) == 0 {
			return false
		}
		var sum float64
		for _, x := range xs {
			sum += math.Abs(x)
		}
		return sum/float64(len(xs)) > limit
	}
}

func sourceFunc(src Source) graph.TransformFunc {
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
		d := dataset.FromSlice("src", rows, src.Partitions, 8)
		d.SetVirtualBytes(src.VirtualBytes)
		return d
	})
}
