package experiments

import (
	"metadataflow/internal/graph"
	"metadataflow/internal/workload/dnn"
)

func fig5Params(o Options, seed int64) dnn.Params {
	p := dnn.Defaults()
	p.Seed = seed
	if o.Quick {
		p.Train, p.Val, p.Dims, p.Hidden = 200, 80, 16, 12
		p.Inits = dnn.Inits()[:4]
		p.LearningRates = []float64{0.001, 0.01}
		p.Momenta = []float64{0.5, 0.9}
	}
	return p
}

// Fig5 regenerates the deep learning completion-time comparison: four
// exploration strategies (initial weights only, hyper-parameters only,
// exhaustive cross product, early choose) under sequential, 4-parallel,
// 8-parallel and MDF execution.
func Fig5(o Options) (*Table, error) {
	type builder = func(dnn.Params) (*graph.Graph, error)
	type config struct {
		name  string
		build builder
		// earlyPhases, when set, models the user's two-phase orchestration
		// for the baselines (weights first, then hyper-parameters).
		earlyPhases []builder
	}
	configs := []config{
		{name: "W", build: dnn.BuildWeightsOnlyMDF},
		{name: "RxM", build: dnn.BuildHyperOnlyMDF},
		{name: "WxRxM (exhaustive)", build: dnn.BuildExhaustiveMDF},
		{name: "W->RxM (early choose)", build: dnn.BuildEarlyChooseMDF,
			earlyPhases: []builder{dnn.BuildWeightsOnlyMDF, dnn.BuildHyperOnlyMDF}},
	}
	t := &Table{
		ID:      "fig5",
		Title:   "Deep learning job completion time",
		XLabel:  "explorables",
		Unit:    "virtual seconds",
		Columns: strategyColumns,
	}
	return sweep(o, t, configs, func(c config) string { return c.name },
		func(c config, seed int64) ([]float64, error) {
			return strategyRow(clusterConfig(8, 10*gb), fig5Params(o, seed), c.build, c.earlyPhases...)
		})
}
