package dnn

import (
	"math"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
)

// TestIterativeTrainsOnScaledSet: every round of an iterative branch trains
// on preprocessOp's scaled examples, so the chosen model is bit for bit a
// model of its setting trained Epochs times on the scaled set.
func TestIterativeTrainsOnScaledSet(t *testing.T) {
	p := DefaultIterative()
	p.Train, p.Val, p.Dims, p.Hidden = 200, 80, 16, 12
	p.VirtualBytes = 1 << 28
	p.Seed, p.Epochs = 7, 4
	g, err := BuildIterativeMDF(p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig()
	cfg.Workers, cfg.MemPerWorker = 4, 1<<30
	run, err := engine.NewRun(plan, engine.Options{
		Cluster:     cluster.MustNew(cfg),
		Policy:      memorymgr.AMM,
		Scheduler:   scheduler.BAS(nil),
		Incremental: true,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for run.Step() {
	}
	var chosen []int
	for _, sel := range run.ChooseSelections() {
		chosen = append(chosen, sel...)
	}
	if len(chosen) != 1 {
		t.Fatalf("selected branches %v, want one", chosen)
	}
	got := firstRow[trainState](run.Result().Output).model

	src := singleRow("src", dataRow{examples: p.examples()}, p.Partitions, p.VirtualBytes)
	pre, err := preprocessOp(p.Params)([]*dataset.Dataset{src})
	if err != nil {
		t.Fatal(err)
	}
	scaled := firstRow[dataRow](pre).examples
	// Branches are numbered as BuildIterativeMDF lists them: init, then
	// learning rate, then momentum.
	k := chosen[0]
	perInit := len(p.LearningRates) * len(p.Momenta)
	lr, mom := p.LearningRates[k%perInit/len(p.Momenta)], p.Momenta[k%len(p.Momenta)]
	want := NewModel(p.Dims, p.Hidden, p.Classes, p.Inits[k/perInit], p.Seed+int64(k))
	for range p.Epochs {
		want.TrainEpoch(scaled[:p.Train], lr, mom)
	}
	for i, ws := range [][]float64{want.W1, want.B1, want.W2, want.B2} {
		gs := [][]float64{got.W1, got.B1, got.W2, got.B2}[i]
		for j := range ws {
			if math.Float64bits(gs[j]) != math.Float64bits(ws[j]) {
				t.Fatalf("branch %d: parameter %d[%d] = %v, trained on the scaled set %v", k, i, j, gs[j], ws[j])
			}
		}
	}
}
