package dnn

import (
	"math"
	"testing"

	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
)

// TestGraphsShareNoExampleSet builds two early-choose graphs from one Params:
// each source emits an example set of its own, nothing one graph made
// outlives it in another, and the two runs select and output the same model,
// bit for bit.
func TestGraphsShareNoExampleSet(t *testing.T) {
	p := Defaults()
	var firsts [2]*float64
	var models [2]*Model
	for i := range firsts {
		g, err := BuildEarlyChooseMDF(p)
		if err != nil {
			t.Fatal(err)
		}
		src, err := g.Sources()[0].Transform(nil)
		if err != nil {
			t.Fatal(err)
		}
		firsts[i] = &firstRow[dataRow](src).examples[0].X[0]
		res, err := engine.Execute(g, engine.Options{
			Cluster:     cluster.MustNew(cluster.DefaultConfig()),
			Policy:      memorymgr.AMM,
			Scheduler:   scheduler.BAS(nil),
			Incremental: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		models[i] = firstRow[modelRow](res.Output).model
	}
	if firsts[0] == firsts[1] {
		t.Error("two graphs built from one Params emit one example set")
	}
	a, b := models[0], models[1]
	if a == b {
		t.Fatal("two runs output one model value")
	}
	for _, w := range [][2][]float64{{a.W1, b.W1}, {a.B1, b.B1}, {a.W2, b.W2}, {a.B2, b.B2}} {
		if len(w[0]) != len(w[1]) {
			t.Fatalf("the two runs output models of %d and %d weights", len(w[0]), len(w[1]))
		}
		for j := range w[0] {
			if math.Float64bits(w[0][j]) != math.Float64bits(w[1][j]) {
				t.Fatalf("weight %d: %v and %v, want the same model from both graphs", j, w[0][j], w[1][j])
			}
		}
	}
}
