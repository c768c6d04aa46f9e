package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"text/tabwriter"

	"metadataflow/internal/experiments"
	"metadataflow/internal/obs"
	"metadataflow/internal/service"
)

// statMain diffs two MDF telemetry artifacts — mdf.bench/v1 benchmark
// tables, mdf.metrics/v1 run snapshots, or mdf.watch/v1 event-stream
// captures — and renders a per-series delta table (or, for watch logs, a
// crash-recovery completeness report). It is the trajectory gate behind
// `make bench-baseline`: when a watched series regresses past the threshold
// (the current value is worse than the baseline by more than -threshold
// percent) it prints the offending rows and exits 1, so CI catches a
// performance regression even when the artifact bytes legitimately changed.
//
//	mdf stat [-threshold pct] [-watch regex] [-higher-better] baseline.json current.json
//	mdf stat pre-crash.watch post-recovery.watch
//
// Both artifacts must carry the same schema; each is decoded with the type
// that encodes it. Bench tables flatten to one series per (row, column) cell
// using the cell's avg; metrics snapshots flatten to completion_sec plus
// every counter and gauge. All values in both schemas are virtual-time or
// simulated quantities, so the diff is exact across machines. By default
// larger is worse (completion times); -higher-better inverts the direction
// for throughput-like artifacts. Series present on only one side are
// reported but never gated.
//
// Watch captures (NDJSON streams saved from the service's GET /watch) are
// compared as pre-crash baseline vs post-recovery current: each log's event
// sequence must be dense from 1, and every lifecycle transition streamed
// before the crash must reappear after recovery. Missing events are printed
// and gate exit 1. Malformed input is exit 2.
func statMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("stat", stderr)
	threshold := fs.Float64("threshold", 5, "regression threshold in percent")
	watch := fs.String("watch", ".*", "regexp of series names the gate applies to")
	higherBetter := fs.Bool("higher-better", false, "treat larger current values as improvements")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if fs.NArg() != 2 {
		return fail(stderr, usageErrorf("usage: mdf stat [-threshold pct] [-watch regex] [-higher-better] baseline.json current.json"))
	}
	re, err := regexp.Compile(*watch)
	if err != nil {
		return fail(stderr, usageErrorf("bad -watch: %v", err))
	}
	var docs [2]artifact
	for i := range docs {
		if docs[i], err = readArtifact(fs.Arg(i)); err != nil {
			return fail(stderr, usageErrorf("%v", err))
		}
	}
	if docs[0].schema != docs[1].schema {
		return fail(stderr, usageErrorf("schema mismatch: %q vs %q", docs[0].schema, docs[1].schema))
	}
	if docs[0].schema == service.WatchSchema {
		return watchDiff(docs, stdout, stderr)
	}
	var sets [2]*series
	for i, a := range docs {
		if sets[i], err = flatten(a); err != nil {
			return fail(stderr, usageErrorf("%v", err))
		}
	}
	fmt.Fprintf(stdout, "%s, threshold %g%%\n", sets[0].title, *threshold)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	regressions := render(tw, sets[0], sets[1], re, *threshold, *higherBetter)
	tw.Flush()
	if regressions > 0 {
		fmt.Fprintf(stderr, "mdf stat: %d series regressed past %g%%\n", regressions, *threshold)
		return exitFailed
	}
	return exitOK
}

// artifact is one input file and the schema its first JSON value declares.
type artifact struct {
	path, schema string
	raw          []byte
}

func readArtifact(path string) (artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return artifact{}, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	// The first value is the whole document, or a watch log's header line.
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&probe); err != nil && err != io.EOF {
		return artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return artifact{path: path, schema: probe.Schema, raw: raw}, nil
}

// series are an artifact's named values in the artifact's own emission
// order (which both schemas keep deterministic).
type series struct {
	title string
	vals  map[string]float64
	order []string
}

func (s *series) put(name string, v float64) {
	if _, dup := s.vals[name]; !dup {
		s.order = append(s.order, name)
	}
	s.vals[name] = v
}

// flatten decodes a bench table or a metrics snapshot into its series.
func flatten(a artifact) (*series, error) {
	s := &series{vals: make(map[string]float64)}
	switch a.schema {
	case experiments.BenchSchema:
		var doc experiments.BenchDoc
		if err := json.Unmarshal(a.raw, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", a.path, err)
		}
		unit := doc.Unit
		if unit == "" {
			unit = "unitless"
		}
		s.title = fmt.Sprintf("experiment %s (%s)", doc.Experiment, unit)
		for _, r := range doc.Rows {
			for j, c := range r.Cells {
				col := fmt.Sprintf("col%d", j)
				if j < len(doc.Columns) {
					col = doc.Columns[j]
				}
				s.put(r.X+"/"+col, c.Avg)
			}
		}
	case obs.SnapshotSchema:
		var snap obs.Snapshot
		if err := json.Unmarshal(a.raw, &snap); err != nil {
			return nil, fmt.Errorf("%s: %w", a.path, err)
		}
		s.title = "metrics snapshot"
		s.put("completion_sec", snap.CompletionSec.Seconds())
		for _, c := range snap.Counters {
			s.put("counter."+c.Name, float64(c.Value))
		}
		for _, g := range snap.Gauges {
			s.put("gauge."+g.Name, g.Value)
		}
	default:
		return nil, fmt.Errorf("%s: unsupported schema %q (want %s, %s or %s)", a.path, a.schema,
			experiments.BenchSchema, obs.SnapshotSchema, service.WatchSchema)
	}
	return s, nil
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

// render writes the delta table: the baseline's series in its order, then
// those only the current artifact has. A series matching watch is tagged and
// counted as a regression when the current value is worse than the baseline
// by more than threshold percent, "worse" meaning larger unless higherBetter;
// a series on one side only is reported but never gated.
func render(w io.Writer, base, cur *series, watch *regexp.Regexp, threshold float64, higherBetter bool) int {
	fmt.Fprintln(w, "series\tbaseline\tcurrent\tdelta\tdelta%\t")
	regressions := 0
	for _, name := range base.order {
		b := base.vals[name]
		c, ok := cur.vals[name]
		if !ok {
			fmt.Fprintf(w, "%s\t%g\t-\t\t\tremoved\n", name, b)
			continue
		}
		pct := "-"
		if b != 0 {
			pct = fmt.Sprintf("%+.2f%%", (c-b)/b*100)
		}
		tag := ""
		if regressed(b, c, threshold, higherBetter) && watch.MatchString(name) {
			tag = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%s\t%g\t%g\t%+g\t%s\t%s\n", name, b, c, c-b, pct, tag)
	}
	for _, name := range cur.order {
		if _, ok := base.vals[name]; !ok {
			fmt.Fprintf(w, "%s\t-\t%g\t\t\tnew\n", name, cur.vals[name])
		}
	}
	return regressions
}
