package mdf

import (
	"testing"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
)

func TestCrossValidateStructure(t *testing.T) {
	b := NewBuilder()
	src := b.Source("src", srcFn(), 0.001)
	out := src.CrossValidate(CrossValidationSpec{
		Name:  "cv",
		Folds: 5,
		Train: func(fold, folds int) graph.TransformFunc {
			return WholeDataset("train", func(in *dataset.Dataset) (*dataset.Dataset, error) {
				train, val := Fold[dataset.Row](in, fold, folds)
				// "Model" = (train size, val size) as a single row.
				return dataset.FromSlice("model", [][2]int{{len(train), len(val)}}, 1, 8), nil
			})
		},
		Evaluate: FuncEvaluator("valsize", func(d *dataset.Dataset) float64 {
			return float64(dataset.Flatten[[2]int](d)[0][1])
		}),
	})
	out.Then("sink", Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	scopes, err := g.MatchScopes()
	if err != nil {
		t.Fatal(err)
	}
	if len(scopes) != 1 || len(scopes[0].Branches) != 5 {
		t.Fatalf("want one scope with 5 fold branches, got %+v", scopes)
	}
}

func TestCrossValidateSpecValidation(t *testing.T) {
	bad := []CrossValidationSpec{
		{Name: "x", Folds: 1, Train: func(int, int) graph.TransformFunc { return nil },
			Evaluate: SizeEvaluator()},
		{Name: "x", Folds: 3, Evaluate: SizeEvaluator()},
		{Name: "x", Folds: 3, Train: func(int, int) graph.TransformFunc { return nil }},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestFoldPartition(t *testing.T) {
	rows := make([]int, 10)
	for i := range rows {
		rows[i] = i
	}
	d := dataset.FromSlice("d", rows, 3, 1)
	train, val := Fold[int](d, 1, 5)
	if len(val) != 2 || len(train) != 8 {
		t.Fatalf("fold sizes = %d/%d, want 8/2", len(train), len(val))
	}
	// Fold 1 of 5 validates rows 1 and 6.
	if val[0] != 1 || val[1] != 6 {
		t.Fatalf("validation rows = %v", val)
	}
	// Folds are disjoint and cover everything.
	seen := map[int]bool{}
	for _, r := range append(train, val...) {
		if seen[r] {
			t.Fatal("row in both subsets")
		}
		seen[r] = true
	}
	if len(seen) != 10 {
		t.Fatal("rows lost by folding")
	}
}

func TestMergeCreatesDiamond(t *testing.T) {
	b := NewBuilder()
	src := b.Source("src", srcFn(), 0.001)
	left := src.Then("left", Identity("l"), 0.001)
	right := src.Then("right", Identity("r"), 0.001)
	merged := left.Merge("join", func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		return dataset.Concat("joined", ins...), nil
	}, 0.002, right)
	merged.Then("sink", Identity("out"), 0.001)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The merge op must have two predecessors in order (left, right).
	var joinOp *graph.Operator
	for _, op := range g.Ops() {
		if op.Name == "join" {
			joinOp = op
		}
	}
	if joinOp == nil {
		t.Fatal("join op missing")
	}
	pres := g.Pre(joinOp)
	if len(pres) != 2 || pres[0].Name != "left" || pres[1].Name != "right" {
		t.Fatalf("join predecessors = %v", pres)
	}
}

func TestMergeRejectsNil(t *testing.T) {
	b := NewBuilder()
	src := b.Source("src", srcFn(), 0.001)
	src.Merge("join", Identity("x"), 0.001, nil)
	if _, err := b.Build(); err == nil {
		t.Fatal("merge with nil input accepted")
	}
}
