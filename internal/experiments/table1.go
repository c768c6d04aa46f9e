package experiments

import (
	"fmt"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/scheduler"
)

// Table1 verifies the optimisation matrix of Tab. 1 by construction: for
// each combination of evaluator properties (monotone / convex / none) and
// selection properties (associative, non-exhaustive), it executes a
// controlled MDF and reports whether datasets of discarded branches were
// dropped incrementally and whether superfluous branches were pruned.
// Cells hold 1 (observed) or 0 (not observed).
func Table1(o Options) (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Observed optimisations by choose function properties",
		XLabel:  "evaluator/selection",
		Unit:    "1=observed",
		Columns: []string{"discard incrementally", "discard superfluous"},
	}

	const branches = 8
	type config struct {
		name string
		eval mdf.Evaluator
		sel  mdf.Selector
		// shape selects how table1MDF lets branch scores vary with the hint.
		shape int
	}
	rows := []config{
		{
			name: "monotone / associative (top-1, sorted)",
			eval: mdf.Evaluator{Name: "rows", Monotone: true,
				Fn: func(d *dataset.Dataset) float64 { return float64(d.NumRows()) }},
			sel: mdf.TopK(1), shape: 0,
		},
		{
			name: "convex / associative (min, sorted)",
			eval: mdf.Evaluator{Name: "dist", Convex: true,
				Fn: func(d *dataset.Dataset) float64 { return float64(d.NumRows()) }},
			sel: mdf.Min(), shape: 1,
		},
		{
			name: "none / associative & non-exhaustive (k-threshold)",
			eval: mdf.SizeEvaluator(),
			sel:  mdf.KThreshold(2, 100, false), shape: 2,
		},
		{
			name: "none / associative (top-k)",
			eval: mdf.SizeEvaluator(),
			sel:  mdf.TopK(2), shape: 2,
		},
		{
			name: "none / none (mode)",
			eval: mdf.SizeEvaluator(),
			sel:  mdf.Mode(), shape: 2,
		},
	}
	// The construction is unseeded: one run per row, whatever o.Seeds says.
	return sweep(Options{Seeds: 1, Ctx: o.Ctx}, t, rows, func(rc config) string { return rc.name },
		func(rc config, _ int64) ([]float64, error) {
			g, err := table1MDF(rc.eval, rc.sel, branches, rc.shape)
			if err != nil {
				return nil, err
			}
			cfg := fullMDF
			cfg.newSched = func() scheduler.Policy { return scheduler.BAS(scheduler.SortedHint(false)) }
			res, err := cfg.run(g, clusterConfig(4, gb))
			if err != nil {
				return nil, fmt.Errorf("table1 row %q: %w", rc.name, err)
			}
			observed := func(n int) float64 {
				if n > 0 {
					return 1
				}
				return 0
			}
			return []float64{observed(res.Metrics.BranchesDiscarded), observed(res.Metrics.BranchesPruned)}, nil
		})
}

// table1MDF builds a controlled MDF whose branch scores vary with the
// explorable hint. For the monotone row, scores fall with the hint; for the
// convex row, scores fall then rise; otherwise scores alternate.
func table1MDF(eval mdf.Evaluator, sel mdf.Selector, branches, shape int) (*graph.Graph, error) {
	rows := make([]int, 256)
	for i := range rows {
		rows[i] = i
	}
	input := dataset.FromSlice("input", rows, 4, 1<<16)
	specs := make([]mdf.BranchSpec, branches)
	for i := range specs {
		specs[i] = mdf.BranchSpec{Label: fmt.Sprintf("b%d", i), Hint: float64(i)}
	}
	// keepCount determines each branch's output size (and thus score).
	keepCount := func(hint int) int {
		switch shape {
		case 0: // monotone decreasing in the hint
			return 256 - 28*hint
		case 1: // convex: valley at the middle hint
			mid := branches / 2
			d := hint - mid
			return 32 + 16*d*d
		default: // varied sizes
			return 64 + 24*((hint*5)%branches)
		}
	}
	b := mdf.NewBuilder()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	out := src.Explore("explore", specs, mdf.NewChooser(eval, sel),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			keep := keepCount(int(spec.Hint))
			return start.Then("take"+spec.Label, mdf.Filter("taken", func(v int) bool {
				return v < keep
			}), 0.002)
		})
	out.Then("sink", mdf.Identity("result"), 0.0001)
	return b.Build()
}
