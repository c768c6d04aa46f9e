package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/scheduler"
)

// span is one timed interval at a layer boundary, recorded by the driver
// around its own call into the layer or by a decorator the driver installed
// on an exported seam. Parent indexes the enclosing span in the trace (-1
// for a root); spans of one job share Job.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced round in memory; they are written out
// once, when the benchmark ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// cursor is one goroutine's position in the span tree: the stack of open
// spans. A nil cursor records nothing, so the untraced path pays one nil
// check per call site.
type cursor struct {
	tr    *tracer
	job   int
	stack []int
}

func (t *tracer) cursor() *cursor {
	if t == nil {
		return nil
	}
	return &cursor{tr: t}
}

// setJob names the job the cursor's next spans belong to.
func (c *cursor) setJob(job int) {
	if c != nil {
		c.job = job
	}
}

// begin opens a span under the cursor's innermost open span.
func (c *cursor) begin(layer, name string) int {
	if c == nil {
		return -1
	}
	parent := -1
	if n := len(c.stack); n > 0 {
		parent = c.stack[n-1]
	}
	now := time.Since(c.tr.t0).Nanoseconds()
	c.tr.mu.Lock()
	id := len(c.tr.spans)
	c.tr.spans = append(c.tr.spans, span{Name: name, Layer: layer, Job: c.job, Parent: parent, Start: now})
	c.tr.mu.Unlock()
	c.stack = append(c.stack, id)
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (c *cursor) end(id int) {
	if c == nil {
		return
	}
	now := time.Since(c.tr.t0).Nanoseconds()
	c.tr.mu.Lock()
	c.tr.spans[id].End = now
	c.tr.mu.Unlock()
	c.stack = c.stack[:len(c.stack)-1]
}

// spanTotals aggregates the spans of one layer.name.
type spanTotals struct {
	Calls  int
	Total  time.Duration
	Self   time.Duration // Total minus the part covered by child spans
	Sample []float64     // per-span durations in ms, for quantiles
}

// totals folds the trace into per-"layer.name" sums. A span's self time is
// its duration minus the durations of its direct children, which never
// overlap because one cursor opens and closes them in sequence.
func (t *tracer) totals() map[string]*spanTotals {
	out := make(map[string]*spanTotals)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		key := s.Layer + "." + s.Name
		tot := out[key]
		if tot == nil {
			tot = &spanTotals{}
			out[key] = tot
		}
		d := s.End - s.Start
		tot.Calls++
		tot.Total += time.Duration(d)
		tot.Self += time.Duration(d - child[i])
		tot.Sample = append(tot.Sample, float64(d)/1e6)
	}
	return out
}

// writeNDJSON writes one span per line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// instrument installs the driver's decorators on the exported seams of a
// built graph: every operator function and every chooser. The engine calls
// them from inside Step, so their spans nest under the step span.
func (c *cursor) instrument(g *graph.Graph) {
	if c == nil {
		return
	}
	for _, op := range g.Ops() {
		if inner := op.Transform; inner != nil {
			op.Transform = func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
				id := c.begin("workload", "transform")
				out, err := inner(ins)
				c.end(id)
				return out, err
			}
		}
		if op.Chooser != nil {
			op.Chooser = &tracedChooser{Chooser: op.Chooser, c: c}
		}
	}
}

// tracedChooser times the evaluator function and hands out timed sessions;
// the remaining chooser methods pass through the embedded interface.
type tracedChooser struct {
	graph.Chooser
	c *cursor
}

func (t *tracedChooser) Score(d *dataset.Dataset) float64 {
	id := t.c.begin("mdf", "score")
	v := t.Chooser.Score(d)
	t.c.end(id)
	return v
}

func (t *tracedChooser) NewSession(total int) graph.ChooseSession {
	return &tracedSession{ChooseSession: t.Chooser.NewSession(total), c: t.c}
}

// tracedSession times the selection function's Offer.
type tracedSession struct {
	graph.ChooseSession
	c *cursor
}

func (t *tracedSession) Offer(branch int, score float64) ([]int, bool) {
	id := t.c.begin("mdf", "offer")
	discard, done := t.ChooseSession.Offer(branch, score)
	t.c.end(id)
	return discard, done
}

// SetSortedOrder forwards the engine's sorted-order notice, which it sends
// through a type assertion the embedded interface would hide.
func (t *tracedSession) SetSortedOrder(sorted bool) {
	if oa, ok := t.ChooseSession.(interface{ SetSortedOrder(bool) }); ok {
		oa.SetSortedOrder(sorted)
	}
}

// tracedPolicy times scheduler.Policy.Pick and forwards the optional
// interfaces the engine looks for on a policy.
type tracedPolicy struct {
	scheduler.Policy
	c *cursor
}

func (t *tracedPolicy) Pick(ready []*graph.Stage, last *graph.Stage) *graph.Stage {
	id := t.c.begin("scheduler", "pick")
	st := t.Policy.Pick(ready, last)
	t.c.end(id)
	return st
}

func (t *tracedPolicy) ObserveScore(chooseOp *graph.Operator, hint, score float64) {
	if sa, ok := t.Policy.(scheduler.ScoreAware); ok {
		sa.ObserveScore(chooseOp, hint, score)
	}
}

func (t *tracedPolicy) SetPickObserver(f func(scheduler.PickRecord)) {
	if po, ok := t.Policy.(scheduler.PickObservable); ok {
		po.SetPickObserver(f)
	}
}
