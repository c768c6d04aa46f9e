package experiments

import (
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/workload/synthetic"
)

// Ablation isolates the contribution of each MDF mechanism on the synthetic
// job: branch-aware scheduling (BAS vs BFS), anticipatory memory management
// (AMM vs LRU), and incremental choose evaluation — the design choices
// DESIGN.md calls out, measured independently rather than only in the
// paper's {LRU, AMM} × {incremental} grid.
func Ablation(o Options) (*Table, error) {
	configs := []jobConfig{
		{name: "BFS+LRU", newSched: bfs, policy: memorymgr.LRU},
		{name: "BAS+LRU", newSched: bas, policy: memorymgr.LRU},
		{name: "BFS+AMM", newSched: bfs, policy: memorymgr.AMM},
		{name: "BAS+AMM", newSched: bas, policy: memorymgr.AMM},
		{name: "BAS+AMM+incremental", newSched: bas, policy: memorymgr.AMM, incremental: true},
	}
	t := &Table{
		ID:      "ablation",
		Title:   "Mechanism ablation on the synthetic job",
		XLabel:  "branches (|B1|=|B2|)",
		Unit:    "virtual seconds",
		Columns: columnNames(configs),
	}
	factors := []int{5, 8, 10}
	if o.Quick {
		factors = []int{5}
	}
	return sweep(o, t, factors, squareLabel, func(b int, seed int64) ([]float64, error) {
		return eachColumn(configs, func(cfg jobConfig) (float64, error) {
			p := syntheticJob(o, seed, 1200, 500, 8*gb)
			p.OuterBranches, p.InnerBranches = b, b
			g, err := synthetic.BuildMDF(p)
			if err != nil {
				return 0, err
			}
			return seconds(cfg.run(g, clusterConfig(8, 6*gb)))
		})
	})
}
