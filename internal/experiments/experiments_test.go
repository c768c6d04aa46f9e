package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"metadataflow/internal/faults"
	"metadataflow/internal/obs"
	"metadataflow/internal/stats"
)

func quick() Options { return Options{Seeds: 1, Quick: true} }

func firstX(t *Table) string { return t.Rows[0].X }
func lastX(t *Table) string  { return t.Rows[len(t.Rows)-1].X }

// cell returns the summary at (row x, column col), failing the test when
// the table has none.
func cell(t *testing.T, tab *Table, x, col string) stats.Summary {
	t.Helper()
	ci := slices.Index(tab.Columns, col)
	for _, r := range tab.Rows {
		if ci >= 0 && r.X == x && ci < len(r.Cells) {
			return r.Cells[ci]
		}
	}
	t.Fatalf("%s: missing cell (%s, %s)", tab.ID, x, col)
	return stats.Summary{}
}

func cellAvg(t *testing.T, tab *Table, x, col string) float64 {
	t.Helper()
	return cell(t, tab, x, col).Avg
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "ablation",
		"stragglers", "recovery", "reliability"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestTable1ObservedOptimisations(t *testing.T) {
	tab, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Expected matrix per Tab. 1 (rows in order): discard-incrementally,
	// discard-superfluous.
	want := [][2]float64{
		{1, 1}, // monotone + associative
		{1, 1}, // convex + associative
		{1, 1}, // none + associative & non-exhaustive
		{1, 0}, // none + associative
		{0, 0}, // none + none (mode)
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(want))
	}
	for i, w := range want {
		got := tab.Rows[i]
		if got.Cells[0].Avg != w[0] || got.Cells[1].Avg != w[1] {
			t.Errorf("row %q: got (%g, %g), want (%g, %g)",
				got.X, got.Cells[0].Avg, got.Cells[1].Avg, w[0], w[1])
		}
	}
}

func TestFig5Shape(t *testing.T) {
	tab, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive: MDF beats sequential and both parallel baselines.
	x := "WxRxM (exhaustive)"
	mdfT := cellAvg(t, tab, x, "MDF")
	for _, col := range []string{"sequential", "4-parallel", "8-parallel"} {
		if b := cellAvg(t, tab, x, col); mdfT >= b {
			t.Errorf("exhaustive: MDF (%0.0fs) should beat %s (%0.0fs)", mdfT, col, b)
		}
	}
	// Early choose: MDF beats the exhaustive MDF and the 8-parallel
	// baseline by a wide margin.
	ec := cellAvg(t, tab, "W->RxM (early choose)", "MDF")
	if ec >= mdfT {
		t.Errorf("early choose MDF (%0.0fs) should beat exhaustive MDF (%0.0fs)", ec, mdfT)
	}
	par8 := cellAvg(t, tab, "WxRxM (exhaustive)", "8-parallel")
	if ec >= par8*0.5 {
		t.Errorf("early choose (%0.0fs) should be well under half of 8-parallel exhaustive (%0.0fs)", ec, par8)
	}
}

func TestFig6Shape(t *testing.T) {
	tab, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		seq := cellAvg(t, tab, row.X, "sequential")
		mdfT := cellAvg(t, tab, row.X, "MDF")
		if mdfT >= seq {
			t.Errorf("%s: MDF (%0.0fs) should beat sequential (%0.0fs)", row.X, mdfT, seq)
		}
	}
	// The MDF's relative advantage over sequential grows with input size.
	firstGain := cellAvg(t, tab, firstX(tab), "sequential") / cellAvg(t, tab, firstX(tab), "MDF")
	lastGain := cellAvg(t, tab, lastX(tab), "sequential") / cellAvg(t, tab, lastX(tab), "MDF")
	if lastGain < firstGain*0.9 {
		t.Errorf("MDF gain should not shrink with input size: %0.2fx -> %0.2fx", firstGain, lastGain)
	}
}

func TestFig7Shape(t *testing.T) {
	tab, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		seq := cellAvg(t, tab, row.X, "sequential")
		mdfT := cellAvg(t, tab, row.X, "MDF")
		if mdfT >= seq {
			t.Errorf("%s branches: MDF (%0.0fs) should beat sequential (%0.0fs)", row.X, mdfT, seq)
		}
	}
	// Sequential grows roughly linearly in the branch count (16 -> 64
	// quadruples the work).
	s16 := cellAvg(t, tab, "16", "sequential")
	s64 := cellAvg(t, tab, "64", "sequential")
	if s64 < 2.5*s16 {
		t.Errorf("sequential should grow ~linearly with branches: 16 -> %0.0fs, 64 -> %0.0fs", s16, s64)
	}
}

func TestFig8Shape(t *testing.T) {
	tab, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	x := firstX(tab)
	full := cellAvg(t, tab, x, "MDF")
	top4 := cellAvg(t, tab, x, "MDF (top-4)")
	first4 := cellAvg(t, tab, x, "MDF (first-4)")
	sorted := cellAvg(t, tab, x, "MDF (first-4, sorted)")
	// Top-4 discards datasets incrementally (paper: 34-39% saving).
	if top4 >= full*0.9 {
		t.Errorf("top-4 (%0.0fs) should clearly beat full MDF (%0.0fs)", top4, full)
	}
	// Non-exhaustive first-4 prunes superfluous branches: more pronounced.
	if first4 >= top4 {
		t.Errorf("first-4 (%0.0fs) should beat top-4 (%0.0fs)", first4, top4)
	}
	// Sorted hints are at least as good as definition order.
	if sorted > first4*1.05 {
		t.Errorf("sorted hints (%0.0fs) should be at least as good as definition order (%0.0fs)", sorted, first4)
	}
	// Random order varies, but its maximum stays below top-4 (the paper's
	// "the maximum is always less than that of MDF (top-4)").
	rnd := cell(t, tab, x, "MDF (first-4, random)")
	if rnd.Max >= top4 {
		t.Errorf("random first-4 max (%0.0fs) should stay below top-4 (%0.0fs)", rnd.Max, top4)
	}
}

func TestFig9Shape(t *testing.T) {
	tab, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	x := lastX(tab)
	seqT := cellAvg(t, tab, x, "Spark (sequential)")
	yarn := cellAvg(t, tab, x, "Spark (YARN)")
	cache := cellAvg(t, tab, x, "Spark (cache)")
	mdfT := cellAvg(t, tab, x, "SEEP (MDF)")
	if mdfT >= cache || mdfT >= yarn || mdfT >= seqT {
		t.Errorf("SEEP (MDF) (%0.0fs) should beat cache (%0.0fs), YARN (%0.0fs) and sequential (%0.0fs)",
			mdfT, cache, yarn, seqT)
	}
	if seqT <= yarn {
		t.Errorf("Spark sequential (%0.0fs) should be slowest (YARN %0.0fs)", seqT, yarn)
	}
}

func TestFig10Fig13Shape(t *testing.T) {
	rate, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Fig13(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rate.Rows {
		ammInc := cellAvg(t, rate, row.X, "AMM+incremental")
		lru := cellAvg(t, rate, row.X, "LRU")
		if ammInc < lru {
			t.Errorf("workers=%s: AMM+incremental rate (%0.1f) should be >= LRU (%0.1f)", row.X, ammInc, lru)
		}
	}
	// Hit ratio is roughly flat across worker counts (constant input per
	// worker): compare first and last rows per column.
	for _, col := range hit.Columns {
		a := cellAvg(t, hit, firstX(hit), col)
		b := cellAvg(t, hit, lastX(hit), col)
		if diff := a - b; diff > 0.15 || diff < -0.15 {
			t.Errorf("%s hit ratio should be stable across workers: %0.2f vs %0.2f", col, a, b)
		}
	}
}

func TestFig11Fig14Shape(t *testing.T) {
	ct, err := Fig11(quick())
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Fig14(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Completion time grows with data size; hit ratio declines.
	for _, col := range ct.Columns {
		if a, b := cellAvg(t, ct, firstX(ct), col), cellAvg(t, ct, lastX(ct), col); b <= a {
			t.Errorf("%s completion should grow with data size: %0.0fs -> %0.0fs", col, a, b)
		}
	}
	for _, col := range hit.Columns {
		if a, b := cellAvg(t, hit, firstX(hit), col), cellAvg(t, hit, lastX(hit), col); b > a+0.01 {
			t.Errorf("%s hit ratio should not grow with data size: %0.2f -> %0.2f", col, a, b)
		}
	}
	// AMM+incremental achieves at least the LRU hit ratio at the largest size.
	if lru, amm := cellAvg(t, hit, lastX(hit), "LRU"), cellAvg(t, hit, lastX(hit), "AMM+incremental"); amm < lru {
		t.Errorf("AMM+incremental hit ratio (%0.2f) should be >= LRU (%0.2f)", amm, lru)
	}
}

func TestFig12Fig15Shape(t *testing.T) {
	ct, err := Fig12(quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig15(quick()); err != nil {
		t.Fatal(err)
	}
	// AMM+incremental should beat plain LRU at every branching factor.
	for _, row := range ct.Rows {
		lru := cellAvg(t, ct, row.X, "LRU")
		amm := cellAvg(t, ct, row.X, "AMM+incremental")
		if amm > lru {
			t.Errorf("|B1|=%s: AMM+incremental (%0.0fs) should not exceed LRU (%0.0fs)", row.X, amm, lru)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	tab, err := Fig16(quick())
	if err != nil {
		t.Fatal(err)
	}
	// All relative times are <= ~1 (never worse than LRU) and the
	// advantage of AMM+incremental shrinks as compute dominates.
	aFirst := cellAvg(t, tab, firstX(tab), "AMM+incremental")
	aLast := cellAvg(t, tab, lastX(tab), "AMM+incremental")
	if aFirst > 1.02 {
		t.Errorf("AMM+incremental at low cost should be <= LRU: %0.2fx", aFirst)
	}
	if aLast < aFirst-0.02 {
		t.Errorf("AMM+incremental advantage should shrink with compute cost: %0.2fx -> %0.2fx", aFirst, aLast)
	}
}

func TestFig17Fig18Shape(t *testing.T) {
	rel, err := Fig17(quick())
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Fig18(quick())
	if err != nil {
		t.Fatal(err)
	}
	// With little memory, AMM+incremental clearly beats LRU; with ample
	// memory the approaches converge.
	small := cellAvg(t, rel, firstX(rel), "AMM+incremental")
	large := cellAvg(t, rel, lastX(rel), "AMM+incremental")
	if small > 0.95 {
		t.Errorf("AMM+incremental should clearly beat LRU at small memory: %0.2fx", small)
	}
	if large < small {
		t.Errorf("relative time should converge toward 1 with memory: %0.2fx -> %0.2fx", small, large)
	}
	// Hit ratios grow with memory for every policy.
	for _, col := range hit.Columns {
		a := cellAvg(t, hit, firstX(hit), col)
		b := cellAvg(t, hit, lastX(hit), col)
		if b < a-0.01 {
			t.Errorf("%s hit ratio should grow with memory: %0.2f -> %0.2f", col, a, b)
		}
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	text := tab.Format()
	if !strings.Contains(text, "table1") || !strings.Contains(text, "discard incrementally") {
		t.Errorf("Format output missing headers:\n%s", text)
	}
	csv := tab.CSV()
	if lines := strings.Count(csv, "\n"); lines != len(tab.Rows)+1 {
		t.Errorf("CSV has %d lines, want %d", lines, len(tab.Rows)+1)
	}
}

func TestAblationShape(t *testing.T) {
	tab, err := Ablation(quick())
	if err != nil {
		t.Fatal(err)
	}
	x := firstX(tab)
	bfsLRU := cellAvg(t, tab, x, "BFS+LRU")
	basLRU := cellAvg(t, tab, x, "BAS+LRU")
	basAMMInc := cellAvg(t, tab, x, "BAS+AMM+incremental")
	if basLRU > bfsLRU {
		t.Errorf("BAS alone (%0.0fs) should not be slower than BFS (%0.0fs)", basLRU, bfsLRU)
	}
	if basAMMInc > basLRU {
		t.Errorf("full stack (%0.0fs) should not be slower than BAS+LRU (%0.0fs)", basAMMInc, basLRU)
	}
	if basAMMInc >= bfsLRU {
		t.Errorf("full stack (%0.0fs) should clearly beat the baseline (%0.0fs)", basAMMInc, bfsLRU)
	}
}

func TestStragglersShape(t *testing.T) {
	tab, err := Stragglers(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Without speculative re-execution a straggler gates every stage: the
	// job slows by roughly the slow factor, never more.
	base := cellAvg(t, tab, "1x", "SEEP (MDF)")
	slow := cellAvg(t, tab, "4x", "SEEP (MDF)")
	if slow <= base {
		t.Errorf("straggler run (%0.0fs) should be slower than clean (%0.0fs)", slow, base)
	}
	rel := cellAvg(t, tab, "4x", "relative")
	if rel <= 1 || rel > 4.2 {
		t.Errorf("4x straggler should slow the job by (1, 4.2]x, got %0.2fx", rel)
	}
	// With speculation the impact shrinks to roughly the lost capacity
	// share (one of eight workers at quarter speed): well under 2x.
	spec := cellAvg(t, tab, "4x", "relative (spec.)")
	if spec >= rel {
		t.Errorf("speculation (%0.2fx) should beat no mitigation (%0.2fx)", spec, rel)
	}
	if spec > 2 {
		t.Errorf("speculation should bound the 4x straggler impact under 2x, got %0.2fx", spec)
	}
}

func TestRecoveryShape(t *testing.T) {
	tab, err := Recovery(quick())
	if err != nil {
		t.Fatal(err)
	}
	x := firstX(tab)
	clean := cellAvg(t, tab, x, "clean run")
	failed := cellAvg(t, tab, x, "with failure")
	if failed < clean {
		t.Errorf("failed run (%0.0fs) should not be faster than clean (%0.0fs)", failed, clean)
	}
	// Checkpoint recovery must cost far less than rerunning the job.
	overhead := cellAvg(t, tab, x, "overhead")
	if overhead > clean {
		t.Errorf("recovery overhead (%0.0fs) should be below a full rerun (%0.0fs)", overhead, clean)
	}
}

func TestReliabilityAMMBeatsLRU(t *testing.T) {
	tab, err := Reliability(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("reliability table is empty")
	}
	// AMM's anticipatory checkpoints must make its recovery overhead
	// strictly cheaper than LRU's lineage re-derivation at every fault
	// rate, under both schedulers.
	for _, row := range tab.Rows {
		for _, sched := range []string{"BFS", "BAS"} {
			lru := cellAvg(t, tab, row.X, "LRU+"+sched)
			amm := cellAvg(t, tab, row.X, "AMM+"+sched)
			if amm >= lru {
				t.Errorf("rate %s, %s: AMM overhead %0.2fs not strictly below LRU %0.2fs",
					row.X, sched, amm, lru)
			}
			if amm < 0 || lru < 0 {
				t.Errorf("rate %s, %s: negative overhead (AMM %0.2f, LRU %0.2f)",
					row.X, sched, amm, lru)
			}
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tab, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| evaluator/selection |") || !strings.Contains(md, "|---|") {
		t.Errorf("markdown malformed:\n%s", md)
	}
	if lines := strings.Count(md, "\n"); lines < len(tab.Rows)+3 {
		t.Errorf("markdown too short: %d lines", lines)
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{
		ID: "figX", Title: "demo", XLabel: "n", Unit: "virtual seconds",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{X: "1", Cells: []stats.Summary{{Min: 1, Avg: 2, Max: 3}, {Min: 4, Avg: 4, Max: 4}}},
		},
	}
	opts := Options{Seeds: 2}
	data, err := tab.JSON(opts.SeedList())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema     string  `json:"schema"`
		Experiment string  `json:"experiment"`
		Seeds      []int64 `json:"seeds"`
		Columns    []string
		Rows       []struct {
			X     string `json:"x"`
			Cells []struct {
				Min, Avg, Max float64
			} `json:"cells"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bench JSON does not parse: %v", err)
	}
	if doc.Schema != BenchSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, BenchSchema)
	}
	if doc.Experiment != "figX" || len(doc.Seeds) != 2 || doc.Seeds[1] != 2 {
		t.Errorf("header = %+v", doc)
	}
	if len(doc.Rows) != 1 || len(doc.Rows[0].Cells) != 2 || doc.Rows[0].Cells[0].Avg != 2 {
		t.Errorf("rows = %+v", doc.Rows)
	}
	again, err := tab.JSON(opts.SeedList())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("bench JSON is not byte-stable across serializations")
	}
}

func TestCheckFaultSnapshot(t *testing.T) {
	plan := &faults.Plan{Crashes: []faults.Crash{{Node: 0, AfterStages: 1}}}

	ok := obs.NewSnapshot()
	ok.AddCounter("faults.injected", 2)
	ok.AddCounter("faults.node_crashes", 1)
	ok.AddCounter("faults.partitions_rederived", 3)
	ok.AddCounter("faults.rederived_bytes", 1<<20)
	ok.Faults = append(ok.Faults, obs.FaultEvent{Kind: "crash", Node: 0})
	if err := checkFaultSnapshot(ok, plan); err != nil {
		t.Errorf("consistent snapshot rejected: %v", err)
	}

	silent := obs.NewSnapshot()
	if err := checkFaultSnapshot(silent, plan); err == nil {
		t.Error("snapshot with no injected faults accepted")
	}

	inconsistent := obs.NewSnapshot()
	inconsistent.AddCounter("faults.injected", 1)
	inconsistent.AddCounter("faults.node_crashes", 1)
	inconsistent.AddCounter("faults.partitions_rederived", 3)
	if err := checkFaultSnapshot(inconsistent, plan); err == nil {
		t.Error("snapshot with re-derived partitions but zero bytes accepted")
	}
}

func TestSweepSummarisesEachColumnOverSeeds(t *testing.T) {
	tab, err := sweep(Options{Seeds: 3}, &Table{Columns: []string{"sum", "product"}}, []int{10, 20}, strconv.Itoa,
		func(x int, seed int64) ([]float64, error) {
			return []float64{float64(x) + float64(seed), float64(x) * float64(seed)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{X: "10", Cells: []stats.Summary{{Min: 11, Avg: 12, Max: 13}, {Min: 10, Avg: 20, Max: 30}}},
		{X: "20", Cells: []stats.Summary{{Min: 21, Avg: 22, Max: 23}, {Min: 20, Avg: 40, Max: 60}}},
	}
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Errorf("rows = %+v, want %+v", tab.Rows, want)
	}
}

func TestSweepStopsBetweenSeededRuns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := sweep(Options{Seeds: 3, Ctx: ctx}, &Table{}, []int{1, 2}, strconv.Itoa,
		func(int, int64) ([]float64, error) {
			calls++
			cancel() // interrupted during the first run
			return []float64{0}, nil
		})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if calls != 1 {
		t.Errorf("row ran %d times after the interrupt, want 1 run in total", calls)
	}

	boom := errors.New("boom")
	if _, err := sweep(Options{Seeds: 1}, &Table{}, []int{1}, strconv.Itoa,
		func(int, int64) ([]float64, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("err = %v, want the row's error", err)
	}
}
