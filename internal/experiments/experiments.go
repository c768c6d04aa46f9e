// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment returns a Table whose series mirror the
// paper's: completion times (virtual seconds), processing rates or memory
// hit ratios, averaged over three seeded runs with min and max recorded as
// error bars, exactly as the paper reports its results.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"metadataflow/internal/baseline"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
	"metadataflow/internal/stats"
	"metadataflow/internal/workload/synthetic"
)

// Options tunes experiment scale.
type Options struct {
	// Seeds is the number of runs per data point (default 3, matching the
	// paper's protocol).
	Seeds int
	// Quick shrinks workloads and sweeps for fast test runs.
	Quick bool
	// Ctx, when non-nil, cancels a sweep between seeded runs: the sweep
	// driver returns an error wrapping ErrInterrupted at the next data point
	// after the context is done. mdf bench threads its SIGINT/SIGTERM context
	// through here so a half-finished sweep exits promptly without leaving
	// partially written artifacts.
	Ctx context.Context
}

// ErrInterrupted marks a sweep canceled through Options.Ctx.
var ErrInterrupted = errors.New("experiments: interrupted")

// SeedList returns the seeds each data point is averaged over, for
// embedding in machine-readable output.
func (o Options) SeedList() []int64 { return o.seeds() }

func (o Options) seeds() []int64 {
	n := o.Seeds
	if n <= 0 {
		n = 3
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// Row is one x-axis point of a table.
type Row struct {
	X     string
	Cells []stats.Summary
}

// Table is the regenerated data of one figure or table.
type Table struct {
	ID      string
	Title   string
	XLabel  string
	Unit    string
	Columns []string
	Rows    []Row
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s (%s)\n", t.ID, t.Title, t.Unit)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.X) > widths[0] {
			widths[0] = len(r.X)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells[i] = make([]string, len(r.Cells))
		for j, c := range r.Cells {
			cells[i][j] = formatSummary(c)
		}
	}
	for j, col := range t.Columns {
		widths[j+1] = len(col)
		for i := range cells {
			if j < len(cells[i]) && len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], t.XLabel)
	for j, col := range t.Columns {
		fmt.Fprintf(&b, "  %*s", widths[j+1], col)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.X)
		for j := range t.Columns {
			cell := ""
			if j < len(cells[i]) {
				cell = cells[i][j]
			}
			fmt.Fprintf(&b, "  %*s", widths[j+1], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatSummary(s stats.Summary) string {
	if s.Min == s.Max {
		return fmt.Sprintf("%.2f", s.Avg)
	}
	return fmt.Sprintf("%.2f [%.2f,%.2f]", s.Avg, s.Min, s.Max)
}

// Markdown renders the table as a GitHub-flavoured markdown table
// (avg [min, max] cells), ready for EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s** — %s (%s)\n\n", t.ID, t.Title, t.Unit)
	fmt.Fprintf(&b, "| %s |", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|")
	for range len(t.Columns) + 1 {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", r.X)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %s |", formatSummary(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values (avg only).
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, ",%s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s", r.X)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, ",%.4f", c.Avg)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BenchSchema versions the JSON document emitted by Table.JSON. Renaming or
// removing a field is a schema change and must bump this string.
const BenchSchema = "mdf.bench/v1"

// BenchCell is one (x, column) summary in the JSON document.
type BenchCell struct {
	Min float64 `json:"min"`
	Avg float64 `json:"avg"`
	Max float64 `json:"max"`
}

// BenchRow is one x-axis point in the JSON document.
type BenchRow struct {
	X     string      `json:"x"`
	Cells []BenchCell `json:"cells"`
}

// BenchDoc is the machine-readable form of one regenerated experiment.
// Struct-typed fields keep JSON key order, and so the serialized bytes,
// deterministic.
type BenchDoc struct {
	Schema     string     `json:"schema"`
	Experiment string     `json:"experiment"`
	Title      string     `json:"title"`
	XLabel     string     `json:"x_label"`
	Unit       string     `json:"unit"`
	Seeds      []int64    `json:"seeds"`
	Columns    []string   `json:"columns"`
	Rows       []BenchRow `json:"rows"`
}

// JSON renders the table as an indented, schema-stable JSON document
// (BenchSchema) carrying the experiment id, the data series with min/avg/max
// per cell, and the seeds behind each data point. The same table serializes
// to the same bytes.
func (t *Table) JSON(seeds []int64) ([]byte, error) {
	doc := BenchDoc{
		Schema:     BenchSchema,
		Experiment: t.ID,
		Title:      t.Title,
		XLabel:     t.XLabel,
		Unit:       t.Unit,
		Seeds:      seeds,
		Columns:    t.Columns,
		Rows:       make([]BenchRow, 0, len(t.Rows)),
	}
	if doc.Seeds == nil {
		doc.Seeds = []int64{}
	}
	if doc.Columns == nil {
		doc.Columns = []string{}
	}
	for _, r := range t.Rows {
		row := BenchRow{X: r.X, Cells: make([]BenchCell, 0, len(r.Cells))}
		for _, c := range r.Cells {
			row.Cells = append(row.Cells, BenchCell{Min: c.Min, Avg: c.Avg, Max: c.Max})
		}
		doc.Rows = append(doc.Rows, row)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Experiment is a regenerator for one figure or table.
type Experiment struct {
	ID          string
	Description string
	Run         func(Options) (*Table, error)
}

// Registry lists every experiment, keyed by lowercase ID (fig5..fig18,
// table1).
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Optimisations for choose operator function properties", Table1},
		{"fig5", "Deep learning job: completion time by exploration strategy", Fig5},
		{"fig6", "Data profiling job: completion time vs input size", Fig6},
		{"fig7", "Time series job: completion time vs explored branches", Fig7},
		{"fig8", "Time series job: choose-function variants and hints", Fig8},
		{"fig9", "Synthetic job: completion time vs branching factor", Fig9},
		{"fig10", "Scalability: processing rate vs worker count", Fig10},
		{"fig11", "Scalability: completion time vs dataset size", Fig11},
		{"fig12", "Topology: completion time vs outer branching factor", Fig12},
		{"fig13", "Scalability: memory hit ratio vs worker count", Fig13},
		{"fig14", "Scalability: memory hit ratio vs dataset size", Fig14},
		{"fig15", "Topology: memory hit ratio vs outer branching factor", Fig15},
		{"fig16", "Resources: relative completion time vs processing cost", Fig16},
		{"fig17", "Resources: relative completion time vs worker memory", Fig17},
		{"fig18", "Resources: memory hit ratio vs worker memory", Fig18},
		{"ablation", "Mechanism ablation: BAS / AMM / incremental in isolation", Ablation},
		{"stragglers", "Completion time with one straggling worker (§5)", Stragglers},
		{"recovery", "Completion time with a node failure mid-exploration (§5)", Recovery},
		{"reliability", "Recovery overhead: fault rate × policy (LRU/AMM × BFS/BAS)", Reliability},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == strings.ToLower(id) {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

// --- the sweep driver and shared execution helpers -----------------------

// sweep is the one loop every experiment runs through. For each x-value and
// each seed it calls row, which executes that data point once and returns
// one value per column; sweep summarises every column over the seeds (min,
// avg, max), labels the row and appends it to t. Between seeded runs it
// honours Options.Ctx. Runs share no state, so visiting the seeds of a row
// before its columns produces the same table as any other order, and lets
// the columns of a row share work, such as the LRU run behind a relative
// metric.
func sweep[X any](o Options, t *Table, xs []X, label func(X) string,
	row func(x X, seed int64) ([]float64, error)) (*Table, error) {
	seeds := o.seeds()
	for _, x := range xs {
		var vals [][]float64 // per column, one value per seed
		for _, seed := range seeds {
			if o.Ctx != nil && o.Ctx.Err() != nil {
				return nil, fmt.Errorf("%w: %v", ErrInterrupted, context.Cause(o.Ctx))
			}
			r, err := row(x, seed)
			if err != nil {
				return nil, err
			}
			if vals == nil {
				vals = make([][]float64, len(r))
			}
			for c, v := range r {
				vals[c] = append(vals[c], v)
			}
		}
		cells := make([]stats.Summary, len(vals))
		for c, v := range vals {
			cells[c] = stats.Summarize(v)
		}
		t.Rows = append(t.Rows, Row{X: label(x), Cells: cells})
	}
	return t, nil
}

// eachColumn builds one row out of independent columns: cell runs once per
// configuration, in column order.
func eachColumn[C any](configs []C, cell func(C) (float64, error)) ([]float64, error) {
	out := make([]float64, len(configs))
	for i, cfg := range configs {
		v, err := cell(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// seconds turns a finished run into the cell most figures report, its
// completion time in virtual seconds: seconds(fullMDF.run(g, ccfg)).
func seconds(res *engine.Result, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	return res.CompletionTime().Seconds(), nil
}

const gb = int64(1) << 30

// clusterConfig returns the testbed configuration with the given worker
// count and per-worker memory.
func clusterConfig(workers int, mem int64) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Workers = workers
	cfg.MemPerWorker = sim.Bytes(mem)
	return cfg
}

// syntheticJob returns the synthetic workload's defaults at the given
// scale: rows real rows (quickRows in quick mode) standing for bytes of
// virtual input.
func syntheticJob(o Options, seed int64, rows, quickRows int, bytes int64) synthetic.Params {
	p := synthetic.Defaults()
	p.Seed = seed
	p.Rows = rows
	if o.Quick {
		p.Rows = quickRows
	}
	p.VirtualBytes = bytes
	return p
}

func bfs() scheduler.Policy { return scheduler.BFS() }
func bas() scheduler.Policy { return scheduler.BAS(nil) }

// jobConfig is one way of executing an MDF as a single job: the column of
// an ablation.
type jobConfig struct {
	name        string
	policy      memorymgr.PolicyKind
	newSched    func() scheduler.Policy
	incremental bool
	pinReused   bool
}

// columnNames returns the configurations' names, the columns of their table.
func columnNames(configs []jobConfig) []string {
	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = c.name
	}
	return names
}

// fullMDF is the full machinery: BAS + AMM + incremental choose.
var fullMDF = jobConfig{name: "SEEP (MDF)", policy: memorymgr.AMM, newSched: bas, incremental: true}

// options are the engine options c stands for on cluster cl.
func (c jobConfig) options(cl *cluster.Cluster) engine.Options {
	return engine.Options{
		Cluster:     cl,
		Policy:      c.policy,
		Scheduler:   c.newSched(),
		Incremental: c.incremental,
		PinReused:   c.pinReused,
	}
}

// run executes g under c on a fresh cluster.
func (c jobConfig) run(g *graph.Graph, ccfg cluster.Config) (*engine.Result, error) {
	cl, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	return engine.Execute(g, c.options(cl))
}

// familyRun executes the expanded job family of g the way existing systems
// would: sequentially (k = 1) or k jobs at a time, under LRU.
func familyRun(g *graph.Graph, k int, ccfg cluster.Config) (float64, error) {
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		return 0, err
	}
	cl, err := cluster.New(ccfg)
	if err != nil {
		return 0, err
	}
	res, err := baseline.Parallel(jobs, k, baseline.Config{Cluster: cl, Policy: memorymgr.LRU})
	if err != nil {
		return 0, err
	}
	return res.CompletionTime.Seconds(), nil
}

// strategyColumns are the columns of Figs. 5–7: the expanded job family run
// sequentially and 4 and 8 at a time, against the single MDF job.
var strategyColumns = []string{"sequential", "4-parallel", "8-parallel", "MDF"}

// strategyRow fills strategyColumns for one data point: build(p) is the
// MDF. The baselines normally expand the MDF itself; phases, when given,
// replace it with the jobs a user would orchestrate by hand, one phase after
// the other on a fresh cluster, times summed.
func strategyRow[P any](ccfg cluster.Config, p P, build func(P) (*graph.Graph, error),
	phases ...func(P) (*graph.Graph, error)) ([]float64, error) {
	if len(phases) == 0 {
		phases = append(phases, build)
	}
	row, err := eachColumn([]int{1, 4, 8}, func(k int) (float64, error) {
		var total float64
		for _, phase := range phases {
			g, err := phase(p)
			if err != nil {
				return 0, err
			}
			ct, err := familyRun(g, k, ccfg)
			if err != nil {
				return 0, err
			}
			total += ct
		}
		return total, nil
	})
	if err != nil {
		return nil, err
	}
	g, err := build(p)
	if err != nil {
		return nil, err
	}
	v, err := seconds(fullMDF.run(g, ccfg))
	return append(row, v), err
}
