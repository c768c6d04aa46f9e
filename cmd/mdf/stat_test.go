package main

import (
	"regexp"
	"testing"
)

const benchBase = `{
  "schema": "mdf.bench/v1",
  "experiment": "stragglers",
  "title": "t",
  "x_label": "slow factor",
  "unit": "virtual seconds",
  "seeds": [1],
  "columns": ["SEEP (MDF)", "MDF + speculation"],
  "rows": [
    {"x": "1x", "cells": [{"min": 100, "avg": 100, "max": 100}, {"min": 100, "avg": 100, "max": 100}]},
    {"x": "4x", "cells": [{"min": 400, "avg": 400, "max": 400}, {"min": 180, "avg": 180, "max": 180}]}
  ]
}`

// benchRegressed injects a synthetic +10% regression into the 4x
// speculation cell (180 → 198); everything else is unchanged.
const benchRegressed = `{
  "schema": "mdf.bench/v1",
  "experiment": "stragglers",
  "title": "t",
  "x_label": "slow factor",
  "unit": "virtual seconds",
  "seeds": [1],
  "columns": ["SEEP (MDF)", "MDF + speculation"],
  "rows": [
    {"x": "1x", "cells": [{"min": 100, "avg": 100, "max": 100}, {"min": 100, "avg": 100, "max": 100}]},
    {"x": "4x", "cells": [{"min": 400, "avg": 400, "max": 400}, {"min": 198, "avg": 198, "max": 198}]}
  ]
}`

const metricsBase = `{
  "schema": "mdf.metrics/v1",
  "completion_sec": 300,
  "counters": [{"name": "engine.stages_executed", "value": 12}],
  "gauges": [{"name": "mem.peak_bytes", "value": 1048576}],
  "histograms": [], "nodes": [], "faults": []
}`

const metricsRegressed = `{
  "schema": "mdf.metrics/v1",
  "completion_sec": 360,
  "counters": [{"name": "engine.stages_executed", "value": 12}],
  "gauges": [{"name": "mem.peak_bytes", "value": 1048576}],
  "histograms": [], "nodes": [], "faults": []
}`

func runStat(t *testing.T, args ...string) int {
	t.Helper()
	code, _, _ := mdf(t, append([]string{"stat"}, args...)...)
	return code
}

func TestStatIdenticalArtifactsPass(t *testing.T) {
	base := writeFixture(t, "base.json", benchBase)
	if code := runStat(t, base, base); code != 0 {
		t.Fatalf("identical artifacts exit = %d, want 0", code)
	}
}

func TestStatBenchRegressionFails(t *testing.T) {
	base := writeFixture(t, "base.json", benchBase)
	cur := writeFixture(t, "cur.json", benchRegressed)
	if code := runStat(t, base, cur); code != 1 {
		t.Fatalf("+10%% regression at 5%% threshold exit = %d, want 1", code)
	}
	// A looser threshold lets the same delta through.
	if code := runStat(t, "-threshold", "15", base, cur); code != 0 {
		t.Fatalf("+10%% regression at 15%% threshold exit = %d, want 0", code)
	}
	// A watch filter that excludes the regressed series ungates it.
	if code := runStat(t, "-watch", `^1x/`, base, cur); code != 0 {
		t.Fatalf("regression outside watch scope exit = %d, want 0", code)
	}
	// Reversing the artifacts is an improvement, not a regression.
	if code := runStat(t, cur, base); code != 0 {
		t.Fatalf("improvement exit = %d, want 0", code)
	}
}

func TestStatMetricsRegressionFails(t *testing.T) {
	base := writeFixture(t, "base.json", metricsBase)
	cur := writeFixture(t, "cur.json", metricsRegressed)
	if code := runStat(t, base, cur); code != 1 {
		t.Fatalf("completion_sec +20%% exit = %d, want 1", code)
	}
	if code := runStat(t, "-watch", "^counter", base, cur); code != 0 {
		t.Fatalf("counter-only watch exit = %d, want 0", code)
	}
}

func TestStatHigherBetterInverts(t *testing.T) {
	base := writeFixture(t, "base.json", benchBase)
	cur := writeFixture(t, "cur.json", benchRegressed)
	// Under -higher-better the 180 → 198 move is an improvement and the
	// unchanged cells are flat, so nothing regresses.
	if code := runStat(t, "-higher-better", base, cur); code != 0 {
		t.Fatalf("higher-better exit = %d, want 0", code)
	}
	if code := runStat(t, "-higher-better", cur, base); code != 1 {
		t.Fatalf("higher-better drop exit = %d, want 1", code)
	}
}

func TestStatRejectsBadInput(t *testing.T) {
	base := writeFixture(t, "base.json", benchBase)
	met := writeFixture(t, "met.json", metricsBase)
	bad := writeFixture(t, "bad.json", `{"schema": "nope/v9"}`)
	if code := runStat(t, base, bad); code != 2 {
		t.Fatalf("unknown schema exit = %d, want 2", code)
	}
	if code := runStat(t, base, met); code != 2 {
		t.Fatalf("schema mismatch exit = %d, want 2", code)
	}
	if code := runStat(t, base); code != 2 {
		t.Fatalf("missing arg exit = %d, want 2", code)
	}
	if code := runStat(t, "-watch", "(", base, base); code != 2 {
		t.Fatalf("bad regex exit = %d, want 2", code)
	}
}

func TestRegressedDirections(t *testing.T) {
	cases := []struct {
		base, cur    float64
		higherBetter bool
		want         bool
	}{
		{100, 104, false, false}, // within 5%
		{100, 106, false, true},
		{100, 96, false, false}, // improvement
		{0, 1, false, true},     // zero baseline gates absolutely
		{0, 0, false, false},
		{-10, -9.6, false, false}, // within the negative margin (-9.5)
		{-10, -9, false, true},
		{100, 96, true, false}, // within 5% the other way
		{100, 94, true, true},
	}
	for _, c := range cases {
		if got := regressed(c.base, c.cur, 5, c.higherBetter); got != c.want {
			t.Errorf("regressed(%g, %g, 5, %v) = %v, want %v", c.base, c.cur, c.higherBetter, got, c.want)
		}
	}
}

func TestFlattenBenchNaming(t *testing.T) {
	a, err := readArtifact(writeFixture(t, "base.json", benchBase))
	if err != nil {
		t.Fatal(err)
	}
	got, err := flatten(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.order) != 4 {
		t.Fatalf("series count = %d, want 4", len(got.order))
	}
	if got.vals["4x/MDF + speculation"] != 180 {
		t.Fatalf("cell lookup = %g, want 180", got.vals["4x/MDF + speculation"])
	}
	re := regexp.MustCompile(`^(1x|4x)/`)
	for _, name := range got.order {
		if !re.MatchString(name) {
			t.Fatalf("unexpected series name %q", name)
		}
	}
}
