package experiments

import (
	"fmt"

	"metadataflow/internal/memorymgr"
	"metadataflow/internal/workload/synthetic"
)

func fig9Params(o Options, b int, seed int64) synthetic.Params {
	// Sized so each job's working set fits its memory share even under
	// 8-way parallelism (500 MB/worker per dataset vs a 10/8 GB share),
	// while the single-job BFS/cache configurations overflow worker memory
	// once the B + B^2 branch datasets are live at once, which is the
	// memory-pressure effect Fig. 9 measures.
	p := syntheticJob(o, seed, 2000, 600, 4*gb)
	p.OuterBranches = b
	p.InnerBranches = b
	// Inner operators aggregate: their outputs are a quarter of the input,
	// so a parallel job's working set fits its memory share while the
	// single-job configurations still contend for memory across branches.
	p.InnerSizeScale = 0.25
	return p
}

// squareLabel labels a |B1| = |B2| = b point with its total branch count.
func squareLabel(b int) string { return fmt.Sprintf("%d (%d)", b, b*b) }

// Fig9 regenerates the system comparison on the synthetic job: Spark-style
// sequential jobs, Spark-on-YARN parallel jobs, a single Spark job with
// explicit cache() designations under LRU, SEEP with breadth-first
// scheduling, and SEEP with the full MDF machinery (BAS + AMM).
func Fig9(o Options) (*Table, error) {
	// A system runs the expanded family k jobs at a time (k > 0), or the
	// MDF as one job.
	type system struct {
		jobConfig
		k int
	}
	systems := []system{
		{jobConfig{name: "Spark (sequential)"}, 1}, // separate jobs, no reuse
		{jobConfig{name: "Spark (YARN)"}, 8},
		{jobConfig{name: "Spark (cache)", policy: memorymgr.LRU, newSched: bfs, pinReused: true}, 0},
		{jobConfig{name: "SEEP (BFS)", policy: memorymgr.LRU, newSched: bfs}, 0},
		{fullMDF, 0},
	}
	t := &Table{
		ID:     "fig9",
		Title:  "Synthetic job completion time by system configuration",
		XLabel: "branches (|B1|=|B2|)",
		Unit:   "virtual seconds",
	}
	for _, s := range systems {
		t.Columns = append(t.Columns, s.name)
	}
	factors := []int{2, 3, 5, 7, 10}
	if o.Quick {
		factors = []int{2, 5}
	}
	ccfg := clusterConfig(8, 10*gb)
	return sweep(o, t, factors, squareLabel, func(b int, seed int64) ([]float64, error) {
		return eachColumn(systems, func(s system) (float64, error) {
			g, err := synthetic.BuildMDF(fig9Params(o, b, seed))
			if err != nil {
				return 0, err
			}
			if s.k > 0 {
				return familyRun(g, s.k, ccfg)
			}
			return seconds(s.run(g, ccfg))
		})
	})
}
