package metadataflow

import (
	"fmt"

	"metadataflow/internal/baseline"
	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
)

// Core model types, re-exported from the implementation packages.
type (
	// Builder constructs MDF graphs fluently.
	Builder = mdf.Builder
	// Node is a builder handle used to chain operators.
	Node = mdf.Node
	// BranchSpec labels one explorable setting and carries its scheduling
	// hint.
	BranchSpec = mdf.BranchSpec
	// Evaluator is the choose operator's scoring function φ; its Fn may run
	// while operator functions of other branches do (see TransformFunc).
	Evaluator = mdf.Evaluator
	// Selector is the choose operator's selection function ρ.
	Selector = mdf.Selector
	// Chooser composes an evaluator and a selector (Def. 3.3).
	Chooser = mdf.Chooser
	// Graph is a validated dataflow graph or MDF.
	Graph = graph.Graph
	// Operator is a dataflow vertex.
	Operator = graph.Operator
	// TransformFunc is an operator function over datasets. It may be called
	// on another goroutine, concurrently with the functions of other branches
	// of the same job, ahead of its stage's turn and for a branch that is
	// then pruned; it must not write its inputs, must synchronise any state
	// it shares, and leaves the output's ID to the engine (see
	// graph.TransformFunc).
	TransformFunc = graph.TransformFunc
	// Dataset is a partitioned collection of rows.
	Dataset = dataset.Dataset
	// Partition is one horizontal fragment of a dataset.
	Partition = dataset.Partition
	// Row is a single opaque data item.
	Row = dataset.Row
	// Result reports a run's completion time, output and metrics.
	Result = engine.Result
	// Metrics aggregates run statistics (hit ratio, pruning counts, ...).
	Metrics = engine.Metrics
	// ClusterConfig describes the simulated cluster hardware.
	ClusterConfig = cluster.Config
	// IterationSpec configures an unrolled fixpoint computation with
	// in-loop early termination (§3.2).
	IterationSpec = mdf.IterationSpec
	// CrossValidationSpec configures a k-fold cross-validation scope
	// (§3.2).
	CrossValidationSpec = mdf.CrossValidationSpec
)

// FoldRows splits a dataset's rows round-robin into the training and
// validation subsets of the given fold.
func FoldRows(d *Dataset, fold, folds int) (train, validate []Row) {
	return mdf.FoldRows(d, fold, folds)
}

// Terminated reports whether a branch result marks an iteration that was
// terminated early for not converging.
func Terminated(d *Dataset) bool { return mdf.Terminated(d) }

// NewMDF returns an empty MDF builder.
func NewMDF() *Builder { return mdf.NewBuilder() }

// NewChooser composes an evaluator and a selection function.
func NewChooser(eval Evaluator, sel Selector) *Chooser { return mdf.NewChooser(eval, sel) }

// Branches builds branch specs from labels, hinted by position.
func Branches(labels ...string) []BranchSpec { return mdf.Branches(labels...) }

// Selection functions (§3.1, Tab. 1).
var (
	// TopK selects the k highest-scoring branches.
	TopK = mdf.TopK
	// BottomK selects the k lowest-scoring branches.
	BottomK = mdf.BottomK
	// Min selects the single lowest-scoring branch.
	Min = mdf.Min
	// Max selects the single highest-scoring branch.
	Max = mdf.Max
	// Threshold selects every branch passing a score bound.
	Threshold = mdf.Threshold
	// Interval selects every branch scoring within [lo, hi].
	Interval = mdf.Interval
	// KThreshold selects the first k branches passing a bound
	// (non-exhaustive: remaining branches are pruned).
	KThreshold = mdf.KThreshold
	// KInterval selects the first k branches scoring within [lo, hi].
	KInterval = mdf.KInterval
	// Mode selects the branches sharing the most frequent score.
	Mode = mdf.Mode
)

// Evaluator constructors.
var (
	// SizeEvaluator scores a branch by its row count.
	SizeEvaluator = mdf.SizeEvaluator
	// RatioEvaluator scores a branch by row count relative to a baseline.
	RatioEvaluator = mdf.RatioEvaluator
	// FuncEvaluator wraps an arbitrary scoring function.
	FuncEvaluator = mdf.FuncEvaluator
)

// Transform helpers.
var (
	// SourceFromDataset emits a fixed dataset.
	SourceFromDataset = mdf.SourceFromDataset
	// SourceFunc emits the dataset produced by a generator.
	SourceFunc = mdf.SourceFunc
	// MapRows applies a function to every row.
	MapRows = mdf.MapRows
	// FilterRows keeps rows matching a predicate.
	FilterRows = mdf.FilterRows
	// WholeDataset applies a function to the dataset as a whole.
	WholeDataset = mdf.WholeDataset
	// Identity forwards the input under a new identity.
	Identity = mdf.Identity
)

// FromRows builds a partitioned dataset from rows.
func FromRows(name string, rows []Row, parts int, bytesPerRow int64) *Dataset {
	return dataset.FromRows(name, rows, parts, bytesPerRow)
}

// MemoryPolicy selects the eviction policy of worker memory allocators.
type MemoryPolicy string

const (
	// PolicyLRU is the least-recently-used baseline of existing systems.
	PolicyLRU MemoryPolicy = "lru"
	// PolicyAMM is anticipatory memory management (Alg. 2).
	PolicyAMM MemoryPolicy = "amm"
)

// SchedulerKind selects the stage scheduling policy.
type SchedulerKind string

const (
	// SchedulerBFS is the breadth-first baseline of existing systems.
	SchedulerBFS SchedulerKind = "bfs"
	// SchedulerBAS is branch-aware scheduling with definition-order
	// branch execution (Alg. 1).
	SchedulerBAS SchedulerKind = "bas"
	// SchedulerBASSorted is BAS executing branches in ascending hint
	// order, enabling monotone/convex pruning (Tab. 1).
	SchedulerBASSorted SchedulerKind = "bas-sorted"
	// SchedulerBASRandom is BAS with a seeded random branch order
	// (random hyper-parameter search).
	SchedulerBASRandom SchedulerKind = "bas-random"
)

// RunConfig configures Run.
type RunConfig struct {
	// Cluster describes the simulated hardware; zero value uses
	// DefaultClusterConfig.
	Cluster ClusterConfig
	// Memory selects the eviction policy (default AMM).
	Memory MemoryPolicy
	// Scheduler selects the scheduling policy (default BAS).
	Scheduler SchedulerKind
	// Incremental enables incremental choose evaluation (default on for
	// BAS variants via DefaultRunConfig).
	Incremental bool
	// Seed drives random scheduling hints.
	Seed int64
}

// DefaultClusterConfig mirrors the paper's testbed (8 workers, 10 GB of
// dataset memory each).
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// DefaultRunConfig enables the full MDF machinery: BAS scheduling, AMM
// eviction and incremental choose evaluation.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Cluster:     cluster.DefaultConfig(),
		Memory:      PolicyAMM,
		Scheduler:   SchedulerBAS,
		Incremental: true,
	}
}

func (c RunConfig) policy() (memorymgr.PolicyKind, error) {
	switch c.Memory {
	case "", PolicyAMM:
		return memorymgr.AMM, nil
	case PolicyLRU:
		return memorymgr.LRU, nil
	}
	return 0, fmt.Errorf("metadataflow: unknown memory policy %q", c.Memory)
}

func (c RunConfig) newScheduler() (scheduler.Policy, error) {
	switch c.Scheduler {
	case "", SchedulerBAS:
		return scheduler.BAS(nil), nil
	case SchedulerBASSorted:
		return scheduler.BAS(scheduler.SortedHint(false)), nil
	case SchedulerBASRandom:
		return scheduler.BAS(scheduler.RandomHint(c.Seed)), nil
	case SchedulerBFS:
		return scheduler.BFS(), nil
	}
	return nil, fmt.Errorf("metadataflow: unknown scheduler %q", c.Scheduler)
}

func (c RunConfig) clusterOrDefault() ClusterConfig {
	if c.Cluster.Workers == 0 {
		return cluster.DefaultConfig()
	}
	return c.Cluster
}

// Run executes the MDF on a fresh simulated cluster and returns its result.
// Completion times are virtual seconds. With more than one processor
// (GOMAXPROCS) the operator functions of independent branches run on several
// goroutines at once; the result does not depend on it.
func Run(g *Graph, cfg RunConfig) (*Result, error) {
	pol, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	sched, err := cfg.newScheduler()
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cfg.clusterOrDefault())
	if err != nil {
		return nil, err
	}
	return engine.Execute(g, engine.Options{
		Cluster:     cl,
		Policy:      pol,
		Scheduler:   sched,
		Incremental: cfg.Incremental,
	})
}

// FamilyResult reports the execution of an exploratory workflow as separate
// jobs (the baselines of §6.1).
type FamilyResult struct {
	// CompletionTime is the virtual time until the last job finished.
	CompletionTime float64
	// Jobs is the number of concrete jobs executed.
	Jobs int
	// Metrics merges the per-job run metrics.
	Metrics Metrics
}

func familyResult(m *baseline.MultiResult) *FamilyResult {
	return &FamilyResult{CompletionTime: m.CompletionTime.Seconds(), Jobs: len(m.Jobs), Metrics: m.Metrics}
}

// RunSequential expands the MDF into its family of concrete jobs and runs
// them one after another, as a user submitting separate jobs would (§2.2).
func RunSequential(g *Graph, cfg RunConfig) (*FamilyResult, error) {
	return runFamily(g, 1, cfg)
}

// RunParallel expands the MDF into its concrete jobs and runs them k at a
// time, splitting worker memory equally.
func RunParallel(g *Graph, k int, cfg RunConfig) (*FamilyResult, error) {
	return runFamily(g, k, cfg)
}

func runFamily(g *Graph, k int, cfg RunConfig) (*FamilyResult, error) {
	pol, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cfg.clusterOrDefault())
	if err != nil {
		return nil, err
	}
	jobs, err := baseline.ExpandJobs(g)
	if err != nil {
		return nil, err
	}
	res, err := baseline.Parallel(jobs, k, baseline.Config{Cluster: cl, Policy: pol})
	if err != nil {
		return nil, err
	}
	return familyResult(res), nil
}

// ExpandJobs returns the family of concrete dataflow jobs the MDF
// represents, one per combination of explorable settings.
func ExpandJobs(g *Graph) ([]*Graph, error) { return baseline.ExpandJobs(g) }

// DOT renders the MDF in Graphviz DOT syntax.
func DOT(g *Graph, name string) string { return g.DOT(name) }
