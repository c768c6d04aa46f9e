// Package synthetic implements the synthetic job of §6 (Fig. 23): a
// dataflow over string/integer pairs with two nested explore operators whose
// branches apply an algebraic operation to every tuple. The branching
// factors and the per-item processing cost are configurable, which makes the
// job the workhorse of the scalability, topology and resource experiments
// (Figs. 9–18).
package synthetic

import (
	"fmt"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/stats"
)

// Pair is one string/integer tuple.
type Pair struct {
	Key string
	Val int64
}

// Params configures the synthetic MDF.
type Params struct {
	// Rows is the number of pairs in the input.
	Rows int
	// Partitions is the number of dataset partitions (usually the worker
	// count).
	Partitions int
	// VirtualBytes is the accounted input size in bytes (the "gigabytes
	// per worker" of §6.2); it is decoupled from Rows.
	VirtualBytes int64
	// OuterBranches and InnerBranches are |B1| and |B2|.
	OuterBranches int
	InnerBranches int
	// OpsPerItem tunes the per-tuple compute cost (§6: "the algebraic
	// operation is performed a configurable number of times per data
	// item").
	OpsPerItem int
	// InnerSizeScale scales the accounted size of inner-branch outputs
	// relative to their input (1.0 preserves it); values < 1 model
	// aggregating second-level operators.
	InnerSizeScale float64
	// Seed drives the input generator.
	Seed int64
}

// Defaults returns the configuration used by the resource experiments:
// |B1| = |B2| = 5 (§6.4).
func Defaults() Params {
	return Params{
		Rows:           4000,
		Partitions:     8,
		VirtualBytes:   16 << 30,
		OuterBranches:  5,
		InnerBranches:  5,
		OpsPerItem:     4,
		InnerSizeScale: 1.0,
		Seed:           1,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Rows < 1 || p.Partitions < 1 {
		return fmt.Errorf("synthetic: need rows and partitions >= 1")
	}
	if p.OuterBranches < 2 || p.InnerBranches < 2 {
		return fmt.Errorf("synthetic: branching factors must be >= 2, got %d and %d",
			p.OuterBranches, p.InnerBranches)
	}
	if p.OpsPerItem < 1 {
		return fmt.Errorf("synthetic: ops per item must be >= 1")
	}
	if p.InnerSizeScale <= 0 || p.InnerSizeScale > 1 {
		return fmt.Errorf("synthetic: inner size scale %g out of (0, 1]", p.InnerSizeScale)
	}
	return nil
}

// pairs is the struct-of-arrays column of the job's datasets. The operators
// only ever change values, so every derived dataset shares the generator's
// keys and owns one pointer-free []int64: nothing in it for the garbage
// collector to scan, and no Pair is built until the output is boxed.
type pairs struct {
	keys []string
	vals []int64
}

// Len implements dataset.Column.
func (c pairs) Len() int { return len(c.vals) }

// AppendRows implements dataset.Column.
func (c pairs) AppendRows(dst []dataset.Row) []dataset.Row {
	for i, v := range c.vals {
		dst = append(dst, Pair{Key: c.keys[i], Val: v})
	}
	return dst
}

// Slice implements dataset.Column.
func (c pairs) Slice(lo, hi int) dataset.Column {
	return pairs{keys: c.keys[lo:hi:hi], vals: c.vals[lo:hi:hi]}
}

// keyLen is the length of a generated key: 'k' and eight hex digits.
const keyLen = 9

// Generate produces the input dataset of random string/integer pairs.
func Generate(p Params) *dataset.Dataset {
	rng := stats.NewRNG(p.Seed)
	// The keys ("k%08x" of a 30-bit draw) are cut from one string, which
	// costs one allocation where a Sprintf per row costs two per row.
	const hex = "0123456789abcdef"
	text := make([]byte, keyLen*p.Rows)
	vals := make([]int64, p.Rows)
	for i := range vals {
		key := text[keyLen*i : keyLen*(i+1)]
		key[0] = 'k'
		k := rng.Intn(1 << 30)
		for j := keyLen - 1; j > 0; j-- {
			key[j] = hex[k&15]
			k >>= 4
		}
		vals[i] = int64(rng.Intn(1 << 20))
	}
	all := string(text)
	keys := make([]string, p.Rows)
	for i := range keys {
		keys[i] = all[keyLen*i : keyLen*(i+1)]
	}
	d := dataset.FromColumn("pairs", pairs{keys: keys, vals: vals}, p.Partitions, 1)
	d.SetVirtualBytes(p.VirtualBytes)
	return d
}

// mathOp applies the branch's algebraic operation OpsPerItem times to every
// value: an affine update modulo a large prime, parameterised by the
// explorable w. Accounted sizes scale by sizeScale.
func mathOp(name string, sizeScale float64, w int64, opsPerItem int) graph.TransformFunc {
	const mod = 1_000_000_007
	return mdf.PerPartition(name, func(part *dataset.Partition) (dataset.Column, int64) {
		in := part.Col.(pairs)
		vals := make([]int64, len(in.vals))
		for i, v := range in.vals {
			for k := 0; k < opsPerItem; k++ {
				v = (v*w + int64(k) + 1) % mod
			}
			vals[i] = v
		}
		return pairs{keys: in.keys, vals: vals}, int64(float64(part.VirtualBytes) * sizeScale)
	})
}

// sumEvaluator implements int_value from Fig. 23: the mean tuple value of a
// branch result.
func sumEvaluator() mdf.Evaluator {
	return mdf.Evaluator{
		Name: "int_value",
		Fn: func(d *dataset.Dataset) float64 {
			var sum float64
			n := 0
			for _, part := range d.Parts {
				for _, v := range part.Col.(pairs).vals {
					sum += float64(v)
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		},
		CostPerMB: 0.0005,
	}
}

// branchValues returns the explorable values for n branches, following the
// paper's w = 10, 100, 1000, ... progression extended as needed.
func branchValues(n int) []mdf.BranchSpec {
	specs := make([]mdf.BranchSpec, n)
	w := int64(10)
	for i := range specs {
		specs[i] = mdf.BranchSpec{Label: fmt.Sprintf("w=%d", w), Hint: float64(w)}
		if w < 1_000_000_000 {
			w *= 10
		} else {
			w += 7
		}
	}
	return specs
}

// costPerMB converts the per-item op count into the virtual compute cost of
// one accounted megabyte.
func costPerMB(opsPerItem int) float64 { return 0.002 * float64(opsPerItem) }

// BuildMDF constructs the synthetic MDF of Fig. 23: two nested explores
// choosing the maximum mean tuple value.
func BuildMDF(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	input := Generate(p)
	b := mdf.NewBuilder()
	cost := costPerMB(p.OpsPerItem)
	src := b.Source("src", mdf.SourceFromDataset(input), 0.0002)
	inner := branchValues(p.InnerBranches) // the same labels under every outer branch
	outer := src.Explore("B1", branchValues(p.OuterBranches), mdf.NewChooser(sumEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			w1 := int64(spec.Hint)
			first := start.Then("op("+spec.Label+")",
				mathOp("first_op", 1.0, w1, p.OpsPerItem), cost)
			return first.Explore("B2", inner,
				mdf.NewChooser(sumEvaluator(), mdf.Max()),
				func(start *mdf.Node, ispec mdf.BranchSpec) *mdf.Node {
					w2 := int64(ispec.Hint)
					return start.Then("op2("+ispec.Label+")",
						mathOp("second_op", p.InnerSizeScale, w2, p.OpsPerItem), cost)
				})
		})
	outer.Then("sink", mdf.Identity("results"), 0.0001)
	return b.Build()
}
