// Iterative computation with in-loop early termination (§3.2): explore
// gradient-descent step sizes for a least-squares fit; each branch runs an
// unrolled fixpoint iteration whose in-loop check terminates diverging step
// sizes after their first exploding round, so the remaining rounds of those
// branches cost nothing. The choose keeps the converged model with the
// lowest error.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	mdf "metadataflow"
)

type state struct {
	w, b    float64 // model y = w*x + b
	loss    float64
	samples []point
}

type point struct{ x, y float64 }

const rounds = 20

func main() {
	rng := rand.New(rand.NewSource(9))
	samples := make([]point, 800)
	for i := range samples {
		x := rng.Float64() * 4
		samples[i] = point{x: x, y: 2.5*x - 1 + 0.2*rng.NormFloat64()}
	}
	init := state{samples: samples, loss: math.Inf(1)}
	input := mdf.FromSlice("state", []state{init}, 1, 0)
	input.SetVirtualBytes(1 << 28)

	steps := []mdf.BranchSpec{
		{Label: "lr=0.001", Hint: 0.001},
		{Label: "lr=0.01", Hint: 0.01},
		{Label: "lr=0.05", Hint: 0.05},
		{Label: "lr=0.3", Hint: 0.3}, // diverges
		{Label: "lr=0.6", Hint: 0.6}, // diverges
	}

	// Score: negative loss of a converged model; terminated branches last.
	eval := mdf.FuncEvaluator("neg-loss", func(d *mdf.Dataset) float64 {
		if mdf.Terminated(d) {
			return math.Inf(-1)
		}
		return -mdf.Flatten[state](d)[0].loss
	})

	b := mdf.NewMDF()
	src := b.Source("src", mdf.SourceFromDataset(input), 0.001)
	best := src.Explore("step-size", steps, mdf.NewChooser(eval, mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			lr := spec.Hint
			return start.Iterate(mdf.IterationSpec{
				Name:      "gd(" + spec.Label + ")",
				Rounds:    rounds,
				CostPerMB: 0.02,
				Step: func(round int, d *mdf.Dataset) (*mdf.Dataset, error) {
					next := sgdRound(mdf.Flatten[state](d)[0], lr)
					out := mdf.FromSlice("state", []state{next}, 1, 0)
					out.SetVirtualBytes(d.VirtualBytes())
					return out, nil
				},
				Diverged: func(round int, d *mdf.Dataset) bool {
					s := mdf.Flatten[state](d)[0]
					return math.IsNaN(s.loss) || s.loss > 1e6
				},
			})
		})
	best.Then("sink", mdf.Identity("model"), 0)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := mdf.Run(g, mdf.DefaultRunConfig())
	if err != nil {
		log.Fatal(err)
	}
	m := mdf.Flatten[state](res.Output)[0]
	fmt.Printf("explored %d step sizes over %d unrolled rounds\n", len(steps), rounds)
	fmt.Printf("best model: y = %.3f*x + %.3f, loss %.4f (true: 2.5x - 1)\n", m.w, m.b, m.loss)
	fmt.Printf("completion time: %.2f virtual seconds\n", res.CompletionTime())
	fmt.Println("diverging step sizes were cut after their first exploding round;")
	fmt.Println("their remaining rounds forwarded an empty marker at zero cost")
}

func sgdRound(s state, lr float64) state {
	var gw, gb, loss float64
	n := float64(len(s.samples))
	for _, p := range s.samples {
		e := s.w*p.x + s.b - p.y
		gw += 2 * e * p.x / n
		gb += 2 * e / n
		loss += e * e / n
	}
	return state{w: s.w - lr*gw, b: s.b - lr*gb, loss: loss, samples: s.samples}
}
