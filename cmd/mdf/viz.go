package main

import (
	"fmt"
	"io"

	"metadataflow/internal/graph"
)

// vizMain renders an MDF — a built-in workload shrunk to a readable size, or
// a JSON spec — as Graphviz DOT.
//
//	mdf viz -job kde | dot -Tpng -o kde.png
//	mdf viz -job synthetic -b1 3 -b2 4
func vizMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("viz", stderr)
	var (
		job      = fs.String("job", "kde", "workload: "+jobNames())
		specPath = fs.String("spec", "", "render a JSON MDF spec instead of a workload")
		b1       = fs.Int("b1", 3, "outer branching factor (synthetic)")
		b2       = fs.Int("b2", 3, "inner branching factor (synthetic)")
		stages   = fs.Bool("stages", false, "render the stage plan instead of the operator graph")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	g, err := buildGraph(*specPath, *job, jobScale{seed: 1, draw: true, b1: *b1, b2: *b2}, nil)
	if err != nil {
		return fail(stderr, err)
	}
	if !*stages {
		fmt.Fprint(stdout, g.DOT(*job))
		return exitOK
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprint(stdout, plan.DOT(*job))
	return exitOK
}
