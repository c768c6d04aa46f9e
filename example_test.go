package metadataflow_test

import (
	"fmt"
	"log"

	mdf "metadataflow"
)

// ExampleRun builds a minimal MDF — explore three filter limits, keep the
// largest result — and executes it on the simulated cluster.
func ExampleRun() {
	rows := make([]int, 1000)
	for i := range rows {
		rows[i] = i
	}
	input := mdf.FromSlice("numbers", rows, 8, 64)

	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	specs := []mdf.BranchSpec{
		{Label: "limit=300", Hint: 300},
		{Label: "limit=700", Hint: 700},
		{Label: "limit=500", Hint: 500},
	}
	out := src.Explore("limits", specs, mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			limit := int(spec.Hint)
			return start.Then("filter<"+spec.Label,
				mdf.Filter("kept", func(v int) bool { return v < limit }), 0.002)
		})
	out.Then("sink", mdf.Identity("result"), 0)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := mdf.Run(g, mdf.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("selected rows:", res.Output.NumRows())
	fmt.Println("branches evaluated:", res.Metrics.ChooseEvals)
	// Output:
	// selected rows: 700
	// branches evaluated: 3
}

// ExampleKThreshold shows superfluous-branch pruning: the first branch
// passing the threshold ends the exploration, so later branches never run.
func ExampleKThreshold() {
	rows := make([]int, 1000)
	for i := range rows {
		rows[i] = i
	}
	input := mdf.FromSlice("numbers", rows, 8, 64)

	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	specs := []mdf.BranchSpec{
		{Label: "limit=900", Hint: 900},
		{Label: "limit=600", Hint: 600},
		{Label: "limit=300", Hint: 300},
	}
	// Keep the first branch retaining at least 80% of the rows.
	chooser := mdf.NewChooser(mdf.RatioEvaluator(len(rows)), mdf.KThreshold(1, 0.8, false))
	out := src.Explore("limits", specs, chooser,
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			limit := int(spec.Hint)
			return start.Then("filter<"+spec.Label,
				mdf.Filter("kept", func(v int) bool { return v < limit }), 0.002)
		})
	out.Then("sink", mdf.Identity("result"), 0)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := mdf.Run(g, mdf.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("selected rows:", res.Output.NumRows())
	fmt.Println("branches pruned without executing:", res.Metrics.BranchesPruned)
	// Output:
	// selected rows: 900
	// branches pruned without executing: 2
}

// ExampleExpandJobs shows the family of concrete jobs an MDF stands for —
// what a user without MDF support would have to submit separately.
func ExampleExpandJobs() {
	rows := make([]int, 100)
	for i := range rows {
		rows[i] = i
	}
	input := mdf.FromSlice("numbers", rows, 4, 8)

	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	out := src.Explore("outer", mdf.Branches("a", "b"),
		mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			mid := start.Then("t"+spec.Label, mdf.Identity("t"), 0.001)
			return mid.Explore("inner-"+spec.Label, mdf.Branches("x", "y", "z"),
				mdf.NewChooser(mdf.SizeEvaluator(), mdf.Max()),
				func(inner *mdf.Node, ispec mdf.BranchSpec) *mdf.Node {
					return inner.Then("u"+ispec.Label, mdf.Identity("u"), 0.001)
				})
		})
	out.Then("sink", mdf.Identity("result"), 0)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := mdf.ExpandJobs(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("concrete jobs:", len(jobs))
	// Output:
	// concrete jobs: 6
}
