package experiments

import (
	"math"
	"slices"
	"strconv"

	"metadataflow/internal/mdf"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/workload/timeseries"
)

// selectorFor maps a Fig. 8 variant name to its selection function. The
// baseline "all" keeps every branch result (the Fig. 7 MDF exploring all
// branches to completion), so nothing is discarded before the choose.
func selectorFor(kind string, passRatio float64, total int) mdf.Selector {
	switch kind {
	case "top4":
		return mdf.TopK(4)
	case "first4":
		return mdf.KThreshold(4, passRatio, false)
	default: // "all": keep every branch result
		return mdf.TopK(total)
	}
}

// fig7Configs returns the explorable granularities producing the paper's
// branch counts between 16 and 1024 (inner W×T masking branches × outer
// L×M×D analysis branches).
func fig7Configs(o Options) []timeseries.Params {
	base := func(seedless timeseries.Params) timeseries.Params {
		p := seedless
		p.Rows = 4000
		p.Partitions = 8
		p.VirtualBytes = 8 * gb
		// Select maskings that remove something but not too much; most
		// (W, T) settings fall outside the band and are discarded early.
		p.MaskKeepRatio = 0.3
		p.MaskKeepUpper = 0.9
		if o.Quick {
			p.Rows = 1200
		}
		return p
	}
	ws := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = 2 + i
		}
		return out
	}
	ts := func(n int) []float64 {
		steps := []float64{1.0001, 1.0005, 1.001, 1.005, 1.01, 1.05, 1.1, 1.5}
		return steps[:n]
	}
	ls := ws
	ms := func(n int) []float64 {
		steps := []float64{0.1, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0}
		return steps[:n]
	}
	ds := func(n int) []int {
		steps := []int{50, 100, 200, 500, 1000, 2000, 5000, 10000}
		return steps[:n]
	}
	configs := []timeseries.Params{
		// 16 = (2×2) inner × (2×2×1) outer
		base(timeseries.Params{WindowLengths: ws(2), Thresholds: ts(2),
			MarkWindows: ls(2), MagDiffs: ms(2), Durations: ds(1)}),
		// 64 = (2×2) × (2×2×4)
		base(timeseries.Params{WindowLengths: ws(2), Thresholds: ts(2),
			MarkWindows: ls(2), MagDiffs: ms(2), Durations: ds(4)}),
		// 256 = (4×4) × (2×2×4)
		base(timeseries.Params{WindowLengths: ws(4), Thresholds: ts(4),
			MarkWindows: ls(2), MagDiffs: ms(2), Durations: ds(4)}),
		// 1024 = (4×4) × (4×4×4)
		base(timeseries.Params{WindowLengths: ws(4), Thresholds: ts(4),
			MarkWindows: ls(4), MagDiffs: ms(4), Durations: ds(4)}),
	}
	if o.Quick {
		return configs[:2]
	}
	return configs
}

// Fig7 regenerates the time series comparison: completion time as the
// explored branch count grows from 16 to 1024. Sequential grows linearly;
// the MDF terminates underperforming masking branches at the scoped choose.
func Fig7(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Time series job completion time",
		XLabel:  "branches",
		Unit:    "virtual seconds",
		Columns: strategyColumns,
	}
	return sweep(o, t, fig7Configs(o), func(p timeseries.Params) string { return strconv.Itoa(p.Branches()) },
		func(p timeseries.Params, seed int64) ([]float64, error) {
			p.Seed = seed
			return strategyRow(clusterConfig(8, 10*gb), p, timeseries.BuildMDF)
		})
}

// fig8Params builds the flat masking-only configurations for the
// choose-function comparison.
func fig8Params(o Options, branches int, seed int64) timeseries.Params {
	p := timeseries.Defaults()
	p.Seed = seed
	p.Rows = 4000
	p.VirtualBytes = 8 * gb
	if o.Quick {
		p.Rows = 1200
	}
	p.MarkWindows = []int{3}
	p.MagDiffs = []float64{1.0}
	p.Durations = []int{200}
	side := 4
	switch branches {
	case 16:
		side = 4
	case 64:
		side = 8
	case 256:
		side = 16
	case 1024:
		side = 32
	}
	ws := make([]int, side)
	for i := range ws {
		ws[i] = 2 + i
	}
	// The masking kept-ratio is sensitive for thresholds in roughly
	// [1.0001, 1.02] on the synthetic well series; a geometric grid over
	// that band yields a smooth spread of branch result sizes.
	ts := make([]float64, side)
	for i := range ts {
		exp := float64(i) / float64(side-1)
		ts[i] = 1 + 0.0001*math.Pow(200, exp)
	}
	p.WindowLengths = ws
	p.Thresholds = ts
	return p
}

// Fig8 regenerates the optimisation comparison on the time series job: the
// full MDF, top-4 selection (incremental discard), first-4 threshold
// selection (superfluous-branch pruning), first-4 in random branch order
// (12 runs, min-avg-max) and first-4 in hint-sorted order.
func Fig8(o Options) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Time series job: choose functions and scheduling hints",
		XLabel: "branches",
		Unit:   "virtual seconds",
		Columns: []string{
			"MDF", "MDF (top-4)", "MDF (first-4)",
			"MDF (first-4, random)", "MDF (first-4, sorted)",
		},
	}
	branchCounts := []int{16, 64, 256}
	if o.Quick {
		branchCounts = []int{16}
	}
	const passRatio = 0.5 // threshold calibrated so about half the branches qualify
	type variant struct {
		selKind  string
		hint     scheduler.Hint
		monotone bool
	}
	run := func(branches int, seed int64, v variant) (float64, error) {
		g, err := timeseries.BuildFlatMDF(fig8Params(o, branches, seed),
			selectorFor(v.selKind, passRatio, branches), v.monotone)
		if err != nil {
			return 0, err
		}
		cfg := fullMDF
		cfg.newSched = func() scheduler.Policy { return scheduler.BAS(v.hint) }
		return seconds(cfg.run(g, clusterConfig(8, 2*gb)))
	}
	variants := []variant{
		{selKind: "all"},    // MDF: threshold over all branches (explores everything)
		{selKind: "top4"},   // incremental discard only
		{selKind: "first4"}, // non-exhaustive threshold, definition order
		{selKind: "first4", hint: scheduler.SortedHint(false), monotone: true},
	}
	if _, err := sweep(o, t, branchCounts, strconv.Itoa, func(branches int, seed int64) ([]float64, error) {
		return eachColumn(variants, func(v variant) (float64, error) { return run(branches, seed, v) })
	}); err != nil {
		return nil, err
	}
	// MDF (first-4, random): the seed-1 input under 12 random branch
	// orders, min-avg-max, whatever o.Seeds says; spliced in as the fourth
	// column.
	orders := &Table{}
	if _, err := sweep(Options{Seeds: 12, Ctx: o.Ctx}, orders, branchCounts, strconv.Itoa,
		func(branches int, order int64) ([]float64, error) {
			v, err := run(branches, 1, variant{selKind: "first4", hint: scheduler.RandomHint(order)})
			return []float64{v}, err
		}); err != nil {
		return nil, err
	}
	for i := range t.Rows {
		t.Rows[i].Cells = slices.Insert(t.Rows[i].Cells, 3, orders.Rows[i].Cells[0])
	}
	return t, nil
}
