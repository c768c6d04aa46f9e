package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: the
// end-to-end metrics with their direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []metricBound `json:"end_to_end"`
}

type metricBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) (*benchmarkSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(spec.EndToEnd) == 0 {
			return nil, fmt.Errorf("%s: no end_to_end metrics", p)
		}
		return &spec, nil
	}
	return nil, lastErr
}

// loadResults reads every result document of a file written with -json
// (one document per invocation, appended) and keeps the untraced ones by
// workload.
func loadResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]*result)
	dec := json.NewDecoder(f)
	for {
		var r result
		if err := dec.Decode(&r); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
}

// side is one result set's reading of one metric on one workload: the
// median over its runs, all run values, and how far they (or, with a single
// run, its rounds) spread as a share of the median.
type side struct {
	median float64
	values []float64
	spread float64
}

func readSide(runs []*result, metric string) side {
	var s side
	for _, r := range runs {
		s.values = append(s.values, r.EndToEnd[metric].Value)
	}
	s.median = median(s.values)
	if len(runs) == 1 {
		s.spread = relSpread(runs[0].EndToEnd[metric].Rounds)
	} else {
		s.spread = relSpread(s.values)
	}
	return s
}

// verdict is the outcome of one workload x metric row.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares b against a under the metric's direction and bound. A
// spread wider than the bound leaves the row unresolved — the runs cannot
// tell a change of that size from noise — unless every value of b is better
// than every value of a.
func judge(a, b side, m metricBound) (worse float64, v verdict) {
	if a.median != 0 {
		worse = (b.median - a.median) / math.Abs(a.median)
	}
	lowerBetter := m.Better != "higher"
	if !lowerBetter {
		worse = -worse
	}
	if math.Max(a.spread, b.spread) > m.Bound {
		allBetter := len(a.values) > 0 && len(b.values) > 0
		for _, x := range a.values {
			for _, y := range b.values {
				if (lowerBetter && y >= x) || (!lowerBetter && y <= x) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return worse, ok
		}
		return worse, unresolved
	}
	if worse > m.Bound {
		return worse, regressed
	}
	return worse, ok
}

// runCompare implements -compare a.json b.json: one row per workload x
// end-to-end metric, exit status 1 when any row regressed (or more jobs
// failed), 2 on unusable input.
func runCompare(args []string, boundsPath string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmarks: -compare takes two result files")
		return 2
	}
	spec, err := loadBounds(boundsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmarks: bounds: %v\n", err)
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmarks: %v\n", err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmarks: %v\n", err)
		return 2
	}
	status := 0
	fmt.Printf("%-14s %-18s %14s %14s %8s %7s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, name := range workloadNames() {
		ra, rb := a[name], b[name]
		if len(ra) == 0 || len(rb) == 0 {
			if len(ra)+len(rb) > 0 {
				fmt.Printf("%-14s present in only one result set\n", name)
				status = 2
			}
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := readSide(ra, m.Name), readSide(rb, m.Name)
			worse, v := judge(sa, sb, m)
			if v == regressed {
				status = max(status, 1)
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %+7.2f%% %6.1f%% %7.2f%%  %s\n",
				name, m.Name, sa.median, sb.median, 100*worse, 100*m.Bound, 100*math.Max(sa.spread, sb.spread), v)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		v := ok
		if fb > fa {
			v = regressed
			status = max(status, 1)
		}
		fmt.Printf("%-14s %-18s %14.6f %14.6f %8s %7s %8s  %s\n", name, "failed_frac", fa, fb, "", "0", "", v)
	}
	return status
}

func failedFrac(runs []*result) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
