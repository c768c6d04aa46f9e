// Package baseline implements the non-MDF execution strategies the paper
// compares against (§6.1): expanding an MDF into the family of concrete
// dataflow jobs it represents (ExpandJobs), then executing those jobs
// sequentially or k-at-a-time in parallel (Parallel). The Spark-style
// single-job configurations of Fig. 9 are not here: they are one engine run
// of the MDF under LRU, with engine.Options.PinReused for explicit caching,
// or under scheduler.BFS.
package baseline

import (
	"fmt"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
)

// Choice assigns a branch index to each explore operator (keyed by operator
// ID) along one concrete configuration of the exploratory workflow.
type Choice map[int]int

// Combinations enumerates every concrete configuration of the MDF: one
// branch per explore, with nested explores enumerated within their enclosing
// branch. This is the set of jobs a user would submit separately (§2.2).
func Combinations(g *graph.Graph) ([]Choice, error) {
	scopes, err := g.MatchScopes()
	if err != nil {
		return nil, err
	}
	// nestedIn[si][b] lists the scopes immediately nested in branch b of
	// scope si; top collects the outermost scopes.
	memberSet := make([]map[int]bool, len(scopes))
	for i, sc := range scopes {
		memberSet[i] = map[int]bool{}
		for _, br := range sc.Branches {
			for _, op := range br {
				memberSet[i][op] = true
			}
		}
	}
	isNested := make([]bool, len(scopes))
	nestedIn := make(map[[2]int][]int)
	for i, sc := range scopes {
		for j, outer := range scopes {
			if i == j || outer.Depth != sc.Depth-1 {
				continue
			}
			for b := range outer.Branches {
				inBranch := false
				for _, op := range outer.Branches[b] {
					if op == sc.Explore.ID {
						inBranch = true
						break
					}
				}
				if inBranch {
					nestedIn[[2]int{j, b}] = append(nestedIn[[2]int{j, b}], i)
					isNested[i] = true
				}
			}
		}
	}
	var top []int
	for i := range scopes {
		if !isNested[i] {
			top = append(top, i)
		}
	}

	var enumSeq func(idx []int) []Choice
	var enumScope func(si int) []Choice

	enumScope = func(si int) []Choice {
		sc := scopes[si]
		var out []Choice
		for b := range sc.Branches {
			subs := enumSeq(nestedIn[[2]int{si, b}])
			for _, sub := range subs {
				c := Choice{sc.Explore.ID: b}
				for k, v := range sub {
					c[k] = v
				}
				out = append(out, c)
			}
		}
		return out
	}
	enumSeq = func(idx []int) []Choice {
		out := []Choice{{}}
		for _, si := range idx {
			var next []Choice
			for _, base := range out {
				for _, sc := range enumScope(si) {
					c := Choice{}
					for k, v := range base {
						c[k] = v
					}
					for k, v := range sc {
						c[k] = v
					}
					next = append(next, c)
				}
			}
			out = next
		}
		return out
	}
	return enumSeq(top), nil
}

// BuildConcrete materialises the concrete dataflow job for one choice:
// explore operators are removed (the chosen branch connects directly to the
// explore's predecessor) and each choose is replaced by a scoring transform
// that computes the evaluator for the user to compare results offline, as a
// user running separate jobs would (§2.2).
func BuildConcrete(g *graph.Graph, choice Choice) (*graph.Graph, error) {
	// Reachability under the choice: explores follow only the chosen head.
	kept := map[int]bool{}
	var visit func(op *graph.Operator)
	visit = func(op *graph.Operator) {
		if kept[op.ID] {
			return
		}
		kept[op.ID] = true
		if op.Kind == graph.KindExplore {
			b, ok := choice[op.ID]
			if !ok {
				return
			}
			heads := g.Post(op)
			if b < len(heads) {
				visit(heads[b])
			}
			return
		}
		for _, next := range g.Post(op) {
			visit(next)
		}
	}
	for _, src := range g.Sources() {
		visit(src)
	}

	out := graph.New()
	newOp := map[int]*graph.Operator{}
	for _, op := range g.Ops() {
		if !kept[op.ID] {
			continue
		}
		switch op.Kind {
		case graph.KindExplore:
			// elided
		case graph.KindChoose:
			chooser := op.Chooser
			score := &graph.Operator{
				Name:      op.Name + "/score",
				Kind:      graph.KindTransform,
				CostPerMB: op.CostPerMB,
				FixedCost: op.FixedCost,
				Transform: scoreTransform(op.Name, chooser),
			}
			newOp[op.ID] = out.Add(score)
		default:
			cp := *op
			newOp[op.ID] = out.Add(&cp)
		}
	}

	// resolve maps an original operator to the new operator that stands in
	// for it as a data producer.
	var resolve func(op *graph.Operator) (*graph.Operator, error)
	resolve = func(op *graph.Operator) (*graph.Operator, error) {
		if op.Kind == graph.KindExplore {
			pres := g.Pre(op)
			if len(pres) != 1 {
				return nil, fmt.Errorf("baseline: explore %q has %d predecessors", op.Name, len(pres))
			}
			return resolve(pres[0])
		}
		n, ok := newOp[op.ID]
		if !ok {
			return nil, fmt.Errorf("baseline: operator %q not kept", op.Name)
		}
		return n, nil
	}

	for _, op := range g.Ops() {
		if !kept[op.ID] || op.Kind == graph.KindExplore {
			continue
		}
		dst := newOp[op.ID]
		for _, pre := range g.Pre(op) {
			if !kept[pre.ID] {
				continue // unchosen branch into a choose
			}
			src, err := resolve(pre)
			if err != nil {
				return nil, err
			}
			dep, _ := g.Dep(pre, op)
			if err := out.Connect(src, dst, dep); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// scoreTransform wraps a chooser's evaluator as a forwarding transform: the
// separate-job user computes the quality metric at the end of each job and
// compares results offline. It forwards an alias of its input.
func scoreTransform(name string, chooser graph.Chooser) graph.TransformFunc {
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		if len(ins) != 1 {
			return nil, fmt.Errorf("baseline: %s/score expects one input, got %d", name, len(ins))
		}
		_ = chooser.Score(ins[0])
		return ins[0].Alias(ins[0].Name), nil
	}
}

// ExpandJobs enumerates all concrete jobs of the MDF.
func ExpandJobs(g *graph.Graph) ([]*graph.Graph, error) {
	choices, err := Combinations(g)
	if err != nil {
		return nil, err
	}
	jobs := make([]*graph.Graph, 0, len(choices))
	for _, c := range choices {
		job, err := BuildConcrete(g, c)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}
