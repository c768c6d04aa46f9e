package main

import (
	"fmt"
	"math"
	"reflect"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/spec"
)

// libJob is one distinct job on the library path: a graph builder plus the
// cluster shape and engine options it runs under. Every run builds a fresh
// graph and a fresh cluster, as a caller of the library would.
type libJob struct {
	name string
	// weight is how often the job appears in one cycle of a round's mix;
	// 0 counts as 1.
	weight    int
	build     func() (*graph.Graph, error)
	cluster   cluster.Config
	scheduler func() scheduler.Policy
	// incremental, checkpoint and probe mirror the engine options of the
	// path the job stands in for (the service runs non-incremental with a
	// recorder attached; durable servers also enable checkpointing).
	incremental bool
	checkpoint  bool
	recorded    bool
	// store, when set, mirrors the run's checkpoints into a real checkpoint
	// store keyed by the chain hashes of doc, the job's spec document, as a
	// durable server does.
	store *ckptstore.Store
	doc   []byte
}

// outcome is what a finished job is checked against: the choose selections,
// one FNV-1a checksum per output partition, and the virtual completion time.
type outcome struct {
	Selections map[string][]int `json:"selections"`
	Checksums  []string         `json:"checksums"`
	VSec       float64          `json:"vsec"`

	// Counts read off the finished run, kept for the per-layer report.
	metrics engine.Metrics
	stages  int
	steps   int
}

// run executes the job once. c is nil on untraced runs.
func (j *libJob) run(c *cursor) (*outcome, error) {
	out, _, _, err := j.runKeep(c)
	return out, err
}

// runKeep is run for callers that go on to time calls on the finished run
// or its recorder (nil unless the job runs recorded).
func (j *libJob) runKeep(c *cursor) (*outcome, *engine.Run, *obs.Recorder, error) {
	fail := func(stage string, err error) (*outcome, *engine.Run, *obs.Recorder, error) {
		return nil, nil, nil, fmt.Errorf("%s: %s: %w", j.name, stage, err)
	}
	id := c.begin("workload", "build")
	g, err := j.build()
	c.end(id)
	if err != nil {
		return fail("build", err)
	}
	c.instrument(g)

	id = c.begin("graph", "build_plan")
	plan, err := graph.BuildPlan(g)
	c.end(id)
	if err != nil {
		return fail("plan", err)
	}

	cl, err := cluster.New(j.cluster)
	if err != nil {
		return fail("cluster", err)
	}
	opts := engine.Options{
		Cluster:     cl,
		Policy:      memorymgr.AMM,
		Scheduler:   j.scheduler(),
		Incremental: j.incremental,
		Checkpoint:  j.checkpoint,
	}
	if j.store != nil {
		sp, err := spec.Parse(j.doc)
		if err != nil {
			return fail("spec", err)
		}
		opts.Ckpts, opts.CkptChains = j.store, sp.HashReport().OpChains
	}
	var rec *obs.Recorder
	if j.recorded {
		rec = obs.NewRecorder()
		opts.Probe = rec
	}
	if c != nil {
		opts.Scheduler = &tracedPolicy{Policy: opts.Scheduler, c: c}
	}
	id = c.begin("engine", "new_run")
	run, err := engine.NewRun(plan, opts, 0)
	c.end(id)
	if err != nil {
		return fail("new run", err)
	}

	steps := 0
	for {
		id = c.begin("engine", "step")
		alive := run.Step()
		c.end(id)
		steps++
		if !alive {
			break
		}
	}
	if err := run.Err(); err != nil {
		return fail("run", err)
	}
	res := run.Result()
	return &outcome{
		Selections: run.ChooseSelections(),
		Checksums:  checksums(res.Output),
		VSec:       res.CompletionTime().Seconds(),
		metrics:    res.Metrics,
		stages:     len(plan.Stages),
		steps:      steps,
	}, run, rec, nil
}

// matches reports how got differs from the reference, or "" when it does
// not. Virtual time is compared exactly: it is a pure function of the
// inputs, so any difference within one process is a determinism failure.
func (want *outcome) matches(got *outcome) string {
	if !reflect.DeepEqual(normSel(want.Selections), normSel(got.Selections)) {
		return fmt.Sprintf("selections %v, reference %v", got.Selections, want.Selections)
	}
	if !reflect.DeepEqual(want.Checksums, got.Checksums) {
		return fmt.Sprintf("output checksums %v, reference %v", got.Checksums, want.Checksums)
	}
	if want.VSec != got.VSec {
		return fmt.Sprintf("virtual completion %v s, reference %v s", got.VSec, want.VSec)
	}
	return ""
}

// normSel maps empty selections onto nil so that a decoded `[]` and an
// in-memory nil slice compare equal.
func normSel(sel map[string][]int) map[string][]int {
	out := make(map[string][]int, len(sel))
	for k, v := range sel {
		if len(v) == 0 {
			v = nil
		}
		out[k] = v
	}
	return out
}

// fnv64 is FNV-1a folded by hand: the checksum runs inside the measured
// loop, and hash.Hash64 would cost an interface call per word and an
// allocation per string.
type fnv64 uint64

const (
	fnvOffset fnv64 = 14695981039346656037
	fnvPrime  fnv64 = 1099511628211
)

func (h *fnv64) word(x uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnv64(byte(x>>(8*i)))) * fnvPrime
	}
}

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fnv64(s[i])) * fnvPrime
	}
	h.word(uint64(len(s)))
}

// checksums digests each output partition with FNV-1a over the row values.
func checksums(d *dataset.Dataset) []string {
	if d == nil {
		return nil
	}
	out := make([]string, len(d.Parts))
	for i, p := range d.Parts {
		h := fnvOffset
		for _, r := range p.Rows {
			h.row(r)
		}
		out[i] = fmt.Sprintf("%016x", uint64(h))
	}
	return out
}

// row feeds one row's value into h. Rows are opaque to the engine and each
// workload has its own row type, some with unexported fields and pointers
// (a trained model), so the walk goes by reflection: numbers by their bits,
// strings by their bytes, structs, slices and pointers by what they hold.
// The float64 case, which is every row of the spec-built jobs, skips
// reflection.
func (h *fnv64) row(r dataset.Row) {
	if f, ok := r.(float64); ok {
		h.word(math.Float64bits(f))
		return
	}
	h.value(reflect.ValueOf(r))
}

func (h *fnv64) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		h.word(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.word(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			h.word(1)
		} else {
			h.word(0)
		}
	case reflect.String:
		h.str(v.String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h.value(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		h.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.value(v.Index(i))
		}
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			h.word(0)
			return
		}
		h.value(v.Elem())
	default:
		// Maps, channels and funcs have no stable value to digest; no
		// workload emits them as rows.
		panic(fmt.Sprintf("benchmarks: cannot checksum a row of kind %s", v.Kind()))
	}
}
