// Package metadataflow implements meta-dataflows (MDFs), the model for
// efficient exploratory dataflow jobs introduced by Castro Fernandez et al.,
// "Meta-Dataflows: Efficient Exploratory Dataflow Jobs", SIGMOD 2018.
//
// An MDF expresses a whole family of related dataflow jobs as one graph
// using two primitives: Explore forks the dataflow into branches, one per
// algorithmic or parameter choice; Choose scores each branch with an
// evaluator function and keeps a subset via a selection function. The
// runtime executes MDFs with branch-aware scheduling (BAS), which runs
// branches depth-first so choose operators can evaluate incrementally,
// discard losing datasets early and prune superfluous branches, and with
// anticipatory memory management (AMM), which evicts the dataset partitions
// with the fewest remaining reads weighted by reload cost.
//
// Execution happens on a deterministic simulated cluster: operator functions
// run for real over in-process data (so choose decisions are genuine) while
// compute and I/O are charged virtual seconds from a calibrated cost model,
// which makes runs reproducible and lets benchmarks model terabyte-scale
// inputs.
//
// An operator function (TransformFunc) may be called on another goroutine,
// concurrently with the functions of other branches of the same job, before
// its stage's turn, and for a branch that is then pruned: the engine computes
// ready branches ahead on spare processors (GOMAXPROCS) and adopts the
// results in the order the virtual clock fixes, so a run's result, times and
// telemetry do not depend on it. An evaluator function (Evaluator.Fn) is
// called at its choose's turn, while operator functions of other branches may
// be running. A function must not write its inputs, must synchronise any
// state it shares with other functions or other calls of itself, and leaves
// dataset IDs to the engine.
//
// A minimal MDF:
//
//	b := metadataflow.NewMDF()
//	src := b.Source("src", metadataflow.SourceFromDataset(input), 0.001)
//	best := src.Explore("threshold",
//		[]metadataflow.BranchSpec{{Label: "1.5", Hint: 1.5}, {Label: "2.0", Hint: 2.0}},
//		metadataflow.NewChooser(metadataflow.SizeEvaluator(), metadataflow.Max()),
//		func(start *metadataflow.Node, spec metadataflow.BranchSpec) *metadataflow.Node {
//			return start.Then("filter", myFilter(spec.Hint), 0.002)
//		})
//	best.Then("sink", metadataflow.Identity("result"), 0)
//	g, err := b.Build()
//	res, err := metadataflow.Run(g, metadataflow.DefaultRunConfig())
package metadataflow
