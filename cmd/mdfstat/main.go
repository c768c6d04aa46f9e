// mdfstat diffs two MDF telemetry artifacts — mdf.bench/v1 benchmark
// tables, mdf.metrics/v1 run snapshots, or mdf.watch/v1 event-stream
// captures — and renders a per-series delta table (or, for watch logs, a
// crash-recovery completeness report). It is the trajectory gate behind
// `make bench-baseline`: when a watched series regresses past the
// threshold (the current value is worse than the baseline by more than
// -threshold percent), mdfstat prints the offending rows and exits 1, so
// CI catches a performance regression even when the artifact bytes
// legitimately changed.
//
// Usage:
//
//	mdfstat [-threshold pct] [-watch regex] [-higher-better] baseline.json current.json
//	mdfstat pre-crash.watch post-recovery.watch
//
// Both artifacts must carry the same schema. Bench tables flatten to one
// series per (row, column) cell using the cell's avg; metrics snapshots
// flatten to completion_sec plus every counter and gauge. All values in
// both schemas are virtual-time or simulated quantities, so the diff is
// exact across machines. By default larger is worse (completion times);
// -higher-better inverts the direction for throughput-like artifacts.
// Series present on only one side are reported but never gated.
//
// Watch captures (NDJSON streams saved from mdfserve's GET /watch) are
// compared as pre-crash baseline vs post-recovery current: each log's
// event sequence must be dense from 1, and every lifecycle transition
// streamed before the crash must reappear after recovery. Missing events
// are printed and gate exit 1.
//
// Exit codes: 0 no regression, 1 regression past threshold (or lost
// events), 2 usage or malformed input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"text/tabwriter"
)

// artifact is the union of the two accepted document schemas; the schema
// field decides which half is meaningful.
type artifact struct {
	Schema string `json:"schema"`

	// mdf.bench/v1
	Experiment string   `json:"experiment"`
	Unit       string   `json:"unit"`
	Columns    []string `json:"columns"`
	Rows       []struct {
		X     string `json:"x"`
		Cells []struct {
			Min float64 `json:"min"`
			Avg float64 `json:"avg"`
			Max float64 `json:"max"`
		} `json:"cells"`
	} `json:"rows"`

	// mdf.metrics/v1
	CompletionSec float64 `json:"completion_sec"`
	Counters      []stat  `json:"counters"`
	Gauges        []stat  `json:"gauges"`
}

type stat struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

const (
	benchSchema   = "mdf.bench/v1"
	metricsSchema = "mdf.metrics/v1"
)

// load parses one artifact and rejects unknown schemas.
func load(path string) (*artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch a.Schema {
	case benchSchema, metricsSchema:
		return &a, nil
	}
	return nil, fmt.Errorf("%s: unsupported schema %q (want %s or %s)", path, a.Schema, benchSchema, metricsSchema)
}

// flatten reduces an artifact to named series values, returning the map
// and the artifact's own emission order (which both schemas keep
// deterministic).
func flatten(a *artifact) (map[string]float64, []string) {
	vals := make(map[string]float64)
	var order []string
	put := func(name string, v float64) {
		if _, dup := vals[name]; !dup {
			order = append(order, name)
		}
		vals[name] = v
	}
	switch a.Schema {
	case benchSchema:
		for _, r := range a.Rows {
			for j, c := range r.Cells {
				col := fmt.Sprintf("col%d", j)
				if j < len(a.Columns) {
					col = a.Columns[j]
				}
				put(r.X+"/"+col, c.Avg)
			}
		}
	case metricsSchema:
		put("completion_sec", a.CompletionSec)
		for _, c := range a.Counters {
			put("counter."+c.Name, c.Value)
		}
		for _, g := range a.Gauges {
			put("gauge."+g.Name, g.Value)
		}
	}
	return vals, order
}

// delta is one row of the diff table.
type delta struct {
	name          string
	base, cur     float64
	inBase, inCur bool
	regression    bool
}

// diff aligns the two flattened artifacts in baseline order (new series
// appended in current order) and marks regressions on series matching
// watch: a gated series regresses when the current value is worse than the
// baseline by more than threshold percent, with "worse" meaning larger
// unless higherBetter.
func diff(base, cur map[string]float64, baseOrder, curOrder []string, watch *regexp.Regexp, threshold float64, higherBetter bool) []delta {
	var out []delta
	for _, name := range baseOrder {
		d := delta{name: name, base: base[name], inBase: true}
		if v, ok := cur[name]; ok {
			d.cur, d.inCur = v, true
			d.regression = regressed(d.base, d.cur, threshold, higherBetter) && watch.MatchString(name)
		}
		out = append(out, d)
	}
	for _, name := range curOrder {
		if _, ok := base[name]; !ok {
			out = append(out, delta{name: name, cur: cur[name], inCur: true})
		}
	}
	return out
}

// regressed decides whether cur is past the threshold relative to base in
// the worse direction. A zero baseline is gated absolutely: any movement
// in the worse direction regresses, since no relative margin exists.
func regressed(base, cur, threshold float64, higherBetter bool) bool {
	if higherBetter {
		base, cur = -base, -cur
	}
	if base == 0 {
		return cur > 0
	}
	if base < 0 {
		// A negative baseline's "worse" margin still points upward.
		return cur > base*(1-threshold/100)
	}
	return cur > base*(1+threshold/100)
}

// render writes the aligned delta table; regressed rows are tagged.
func render(w *tabwriter.Writer, ds []delta) int {
	fmt.Fprintln(w, "series\tbaseline\tcurrent\tdelta\tdelta%\t")
	regressions := 0
	for _, d := range ds {
		switch {
		case !d.inCur:
			fmt.Fprintf(w, "%s\t%g\t-\t\t\tremoved\n", d.name, d.base)
			continue
		case !d.inBase:
			fmt.Fprintf(w, "%s\t-\t%g\t\t\tnew\n", d.name, d.cur)
			continue
		}
		dv := d.cur - d.base
		pct := "-"
		if d.base != 0 {
			pct = fmt.Sprintf("%+.2f%%", dv/d.base*100)
		}
		tag := ""
		if d.regression {
			tag = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%s\t%g\t%g\t%+g\t%s\t%s\n", d.name, d.base, d.cur, dv, pct, tag)
	}
	return regressions
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mdfstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 5, "regression threshold in percent")
	watch := fs.String("watch", ".*", "regexp of series names the gate applies to")
	higherBetter := fs.Bool("higher-better", false, "treat larger current values as improvements")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: mdfstat [-threshold pct] [-watch regex] [-higher-better] baseline.json current.json")
		return 2
	}
	re, err := regexp.Compile(*watch)
	if err != nil {
		fmt.Fprintf(stderr, "mdfstat: bad -watch: %v\n", err)
		return 2
	}
	baseWatch, curWatch := sniffWatch(fs.Arg(0)), sniffWatch(fs.Arg(1))
	if baseWatch || curWatch {
		if !baseWatch || !curWatch {
			fmt.Fprintf(stderr, "mdfstat: schema mismatch: one input is %s, the other is not\n", watchSchema)
			return 2
		}
		return runWatchDiff(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	baseArt, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "mdfstat: %v\n", err)
		return 2
	}
	curArt, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "mdfstat: %v\n", err)
		return 2
	}
	if baseArt.Schema != curArt.Schema {
		fmt.Fprintf(stderr, "mdfstat: schema mismatch: %q vs %q\n", baseArt.Schema, curArt.Schema)
		return 2
	}
	baseVals, baseOrder := flatten(baseArt)
	curVals, curOrder := flatten(curArt)
	ds := diff(baseVals, curVals, baseOrder, curOrder, re, *threshold, *higherBetter)

	if baseArt.Schema == benchSchema {
		unit := baseArt.Unit
		if unit == "" {
			unit = "unitless"
		}
		fmt.Fprintf(stdout, "experiment %s (%s), threshold %g%%\n", baseArt.Experiment, unit, *threshold)
	} else {
		fmt.Fprintf(stdout, "metrics snapshot, threshold %g%%\n", *threshold)
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	regressions := render(tw, ds)
	tw.Flush()
	if regressions > 0 {
		fmt.Fprintf(stderr, "mdfstat: %d series regressed past %g%%\n", regressions, *threshold)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
