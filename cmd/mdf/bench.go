package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"metadataflow/internal/experiments"
)

// benchMain regenerates the tables and figures of the paper's evaluation
// (§6) on the simulated cluster and prints the data series.
//
//	mdf bench -exp fig7           # one experiment
//	mdf bench -exp all            # everything (slow)
//	mdf bench -exp fig9 -quick    # reduced sweep for a fast look
//	mdf bench -exp fig9 -csv      # machine-readable output
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", stderr)
	var (
		exp   = fs.String("exp", "", "experiment id (table1, fig5..fig18) or 'all'")
		quick = fs.Bool("quick", false, "reduced workloads and sweeps")
		seeds = fs.Int("seeds", 3, "runs per data point (paper uses 3)")
		csv   = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		md    = fs.Bool("markdown", false, "emit a markdown table (for EXPERIMENTS.md)")
		jsonF = fs.Bool("json", false, "write each experiment's data as BENCH_<exp>.json (schema-stable, with seeds and min/avg/max per cell)")
		out   = fs.String("out", "", "also write each experiment's CSV into this directory")
		list  = fs.Bool("list", false, "list available experiments")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Description)
		}
		if !*list {
			return exitUsage
		}
		return exitOK
	}
	if *seeds < 1 {
		return fail(stderr, usageErrorf("-seeds must be at least 1 (got %d)", *seeds))
	}
	selected := experiments.Registry()
	if *exp != "all" {
		e, err := experiments.ByID(*exp)
		if err != nil {
			return fail(stderr, usageErrorf("%v; `mdf bench -list` prints the experiment ids", err))
		}
		selected = []experiments.Experiment{e}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(stderr, err)
		}
	}
	ctx, stop := signalContext()
	defer stop()
	opts := experiments.Options{Seeds: *seeds, Quick: *quick, Ctx: ctx}
	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %w", e.ID, err))
		}
		if *out != "" {
			if err := os.WriteFile(filepath.Join(*out, e.ID+".csv"), []byte(tab.CSV()), 0o644); err != nil {
				return fail(stderr, err)
			}
		}
		if *jsonF {
			// BENCH_<exp>.json lands next to the CSVs when -out is given,
			// otherwise in the working directory.
			data, err := tab.JSON(opts.SeedList())
			if err != nil {
				return fail(stderr, fmt.Errorf("%s: %w", e.ID, err))
			}
			path := filepath.Join(*out, fmt.Sprintf("BENCH_%s.json", e.ID))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
		switch {
		case *csv:
			fmt.Fprint(stdout, tab.CSV())
		case *md:
			fmt.Fprintln(stdout, tab.Markdown())
		default:
			fmt.Fprint(stdout, tab.Format())
			fmt.Fprintf(stdout, "(regenerated in %.1fs wall time)\n\n", time.Since(start).Seconds())
		}
	}
	return exitOK
}
