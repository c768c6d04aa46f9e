// Package synthetic implements the synthetic job of §6 (Fig. 23): a
// dataflow over string/integer pairs with two nested explore operators whose
// branches apply an algebraic operation to every tuple. The branching
// factors and the per-item processing cost are configurable, which makes the
// job the workhorse of the scalability, topology and resource experiments
// (Figs. 9–18).
package synthetic

import (
	"fmt"
	"strconv"
	"strings"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/mdf"
	"metadataflow/internal/stats"
	"metadataflow/internal/vecmath"
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
	// item"). The virtual cost charges every operation; on the host the
	// operator folds them into one (mathOp), so host time does not grow
	// with it.
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
	if !(p.InnerSizeScale > 0 && p.InnerSizeScale <= 1) {
		return fmt.Errorf("synthetic: inner size scale %g out of (0, 1]", p.InnerSizeScale)
	}
	return nil
}

// pairs is the struct-of-arrays column of the job's datasets. The operators
// only ever change values, and every one of them is an affine map modulo
// mod, so a column is a view: the generator's keys, one string cut at the
// fixed stride keyLen, its base values, and the map that takes a base value
// to the row's. An operator composes its map into its input's and shares the
// rest (mathOp): nothing in either for the garbage collector to scan, no
// payload per branch, and no Pair is built until the output is boxed.
type pairs struct {
	keys string
	vals []uint32
	// mapped marks a view: row i's value is m of vals[i]. Without it — a
	// literal {keys, vals} — the values are vals as stored.
	mapped bool
	// summed says sum is the exact sum of the column's values: mathOp sums
	// only an output that a choose scores.
	summed bool
	m      affineMap
	sum    uint64
}

// affineMap is v ↦ (v·a + b) mod p, a and b below p.
type affineMap struct{ a, b uint64 }

// identity is the map of a column that holds its values as stored.
var identity = affineMap{a: 1}

// apply returns the map of v, v below 2^32: v·a + b is below 2^62 + 2^30,
// exact in uint64.
func (m affineMap) apply(v uint32) uint32 { return uint32((uint64(v)*m.a + m.b) % mod) }

// then returns m followed by n: v ↦ ((v·m.a + m.b)·n.a + n.b) mod p is
// v ↦ (v·(m.a·n.a) + (m.b·n.a + n.b)) mod p. Every factor is below
// p < 2^30, so no product leaves uint64.
func (m affineMap) then(n affineMap) affineMap {
	return affineMap{a: m.a * n.a % mod, b: (m.b*n.a + n.b) % mod}
}

// fn returns the map of the column's base values to its rows' values.
func (c *pairs) fn() affineMap {
	if c.mapped {
		return c.m
	}
	return identity
}

// Len implements dataset.Column.
func (c *pairs) Len() int { return len(c.vals) }

// AppendRows implements dataset.Column. A row's key is a substring of the
// column's keys and its value is computed through the map, so boxing
// allocates only the Pair.
func (c *pairs) AppendRows(dst []dataset.Row, lo, hi int) []dataset.Row {
	m := c.fn()
	for i := lo; i < hi; i++ {
		dst = append(dst, Pair{Key: c.keys[keyLen*i : keyLen*(i+1)], Val: int64(m.apply(c.vals[i]))})
	}
	return dst
}

// window returns the base values of a partition of a pairs dataset, their
// capacity clipped, and the map of its column.
func window(p *dataset.Partition) ([]uint32, affineMap) {
	c := p.Col.(*pairs)
	return c.vals[p.Lo:p.Hi:p.Hi], c.fn()
}

// oneColumn returns the pairs column of which d's partitions are, in order,
// consecutive windows, the rows [lo, hi) they cover, and whether there is
// one: every partition must hold the first one's column and start where the
// previous one ended. A dataset without partitions has none.
func oneColumn(d *dataset.Dataset) (c *pairs, lo, hi int, ok bool) {
	for i := range d.Parts {
		p := &d.Parts[i]
		pc, _ := p.Col.(*pairs)
		if i == 0 {
			c, lo, hi = pc, p.Lo, p.Lo
		}
		if pc == nil || pc != c || p.Lo != hi {
			return nil, 0, 0, false
		}
		hi = p.Hi
	}
	return c, lo, hi, c != nil
}

// keyLen is the length of a generated key: 'k' and eight hex digits.
const keyLen = 9

// mod is the prime the algebraic operation works modulo, the one
// vecmath.AffineSum sums a map's values modulo. Every value of a pairs
// column is below it, and mod < 2^30.
const mod = vecmath.AffineMod

// Generate produces the input dataset of random string/integer pairs.
func Generate(p Params) *dataset.Dataset {
	rng := stats.NewRNG(p.Seed)
	// The keys ("k%08x" of a 30-bit draw) are written into one string,
	// which costs one allocation where a Sprintf per row costs two per row.
	const hex = "0123456789abcdef"
	var keys strings.Builder
	keys.Grow(keyLen * p.Rows)
	key := [keyLen]byte{'k'}
	vals := make([]uint32, p.Rows)
	for i := range vals {
		k := rng.Intn(1 << 30)
		for j := keyLen - 1; j > 0; j-- {
			key[j] = hex[k&15]
			k >>= 4
		}
		keys.Write(key[:])
		vals[i] = uint32(rng.Intn(1 << 20))
	}
	d := dataset.Over("pairs", pairs{keys: keys.String(), vals: vals}, dataset.Windows(p.Rows, p.Partitions, 1))
	d.SetVirtualBytes(p.VirtualBytes)
	return d
}

// affine returns the map v ↦ (v·a + b) mod p that is opsPerItem steps
// v ↦ (v·w + k + 1) mod p, k = 0, 1, ...: an affine map composed with an
// affine map is affine, so a ← a·w and b ← b·w + k + 1 per step, with w
// reduced mod p (w > 0).
func affine(w int64, opsPerItem int) affineMap {
	wp := uint64(w) % mod
	m := identity
	for k := 0; k < opsPerItem; k++ {
		m = m.then(affineMap{a: wp, b: uint64(k) + 1})
	}
	return m
}

// mathOp applies the branch's algebraic operation OpsPerItem times to every
// value: an affine update modulo a large prime, parameterised by the
// explorable w. The OpsPerItem steps are folded into one map (affine) when
// the operator is built, so a value costs one step on the host whatever the
// count; the virtual cost (costPerMB) still charges every one.
//
// Its input is consecutive windows of one column (oneColumn), as every
// input of the synthetic job is; any other is an error. The output is a
// view: the column's keys and base values cut to the windows' rows, the
// column's map followed by the operator's, and the sum of the new values
// when scored, which one pass computes: only the operator whose output a
// choose scores (sumEvaluator) needs it, and the view of one that is not
// scored takes no pass at all. The output is cut at the input's partition
// ends, and accounted sizes scale by sizeScale. It is one closure: a job
// builds one per branch.
func mathOp(name string, sizeScale float64, w int64, opsPerItem int, scored bool) graph.TransformFunc {
	op := affine(w, opsPerItem)
	return func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
		in, err := mdf.OneInput(name, ins)
		if err != nil {
			return nil, err
		}
		c, lo, hi, ok := oneColumn(in)
		if !ok {
			return nil, fmt.Errorf("synthetic: %s: input %q is not consecutive windows of one pairs column", name, in.Name)
		}
		m := c.fn().then(op)
		vals := c.vals[lo:hi:hi]
		var sum uint64
		if scored {
			sum = vecmath.AffineSum(vals, m.a, m.b)
		}
		parts := make([]dataset.Partition, len(in.Parts))
		for i := range in.Parts {
			part := &in.Parts[i]
			parts[i] = dataset.Partition{Lo: part.Lo - lo, Hi: part.Hi - lo, VirtualBytes: int64(float64(part.VirtualBytes) * sizeScale)}
		}
		return dataset.Over(name, pairs{keys: c.keys[keyLen*lo : keyLen*hi], vals: vals, mapped: true, m: m, summed: scored, sum: sum}, parts), nil
	}
}

// sumExactRows bounds the rows whose mean sumEvaluator reads off a column's
// sum: below it every partial sum of values below p < 2^30 is an integer
// below 2^53, so the float64 loop it replaces adds exactly and ends on the
// sum itself.
const sumExactRows = 1 << 23

// sumEvaluator implements int_value from Fig. 23: the mean tuple value of a
// branch result. Over a whole summed column (what mathOp makes of a scored
// branch) it divides the column's sum, bit for bit what summing the values
// in float64 gives; otherwise it sums them, through the column's map.
func sumEvaluator() mdf.Evaluator {
	return mdf.Evaluator{
		Name: "int_value",
		Fn: func(d *dataset.Dataset) float64 {
			if c, lo, hi, ok := oneColumn(d); ok && c.summed && lo == 0 && hi == len(c.vals) && hi > 0 && hi < sumExactRows {
				return float64(c.sum) / float64(hi)
			}
			var sum float64
			n := 0
			for i := range d.Parts {
				if p := &d.Parts[i]; p.Hi > p.Lo {
					vals, m := window(p)
					for _, v := range vals {
						sum += float64(m.apply(v))
					}
					n += len(vals)
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
// paper's w = 10, 100, 1000, ... progression extended as needed, and the
// names of the operators op applies them with, "op(w=%d)". The names are
// substrings of one string (mdf.BranchNames), and each label is the setting
// its name spells out (mdf.Setting).
func branchValues(n int, op string) ([]mdf.BranchSpec, []string) {
	specs := make([]mdf.BranchSpec, n)
	w := int64(10)
	for i := range specs {
		specs[i].Hint = float64(w)
		if w < 1_000_000_000 {
			w *= 10
		} else {
			w += 7
		}
	}
	names := mdf.BranchNames(n, func(dst []byte, i int) []byte {
		dst = append(append(dst, op...), "(w="...)
		return append(strconv.AppendInt(dst, int64(specs[i].Hint), 10), ')')
	})
	for i := range specs {
		specs[i].Label = mdf.Setting(names[i])
	}
	return specs, names
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
	outerSpecs, outerNames := branchValues(p.OuterBranches, "op")
	// The same labels and names under every outer branch, built once.
	innerSpecs, innerNames := branchValues(p.InnerBranches, "op2")
	// The builder builds the branches of an explore in order, so the i-th
	// call of a body builds branch i.
	i := 0
	outer := src.Explore("B1", outerSpecs, mdf.NewChooser(sumEvaluator(), mdf.Max()),
		func(start *mdf.Node, spec mdf.BranchSpec) *mdf.Node {
			w1 := int64(spec.Hint)
			first := start.Then(outerNames[i], mathOp("first_op", 1.0, w1, p.OpsPerItem, false), cost)
			i++
			j := 0
			return first.Explore("B2", innerSpecs,
				mdf.NewChooser(sumEvaluator(), mdf.Max()),
				func(start *mdf.Node, ispec mdf.BranchSpec) *mdf.Node {
					w2 := int64(ispec.Hint)
					op := start.Then(innerNames[j], mathOp("second_op", p.InnerSizeScale, w2, p.OpsPerItem, true), cost)
					j++
					return op
				})
		})
	outer.Then("sink", mdf.Identity("results"), 0.0001)
	return b.Build()
}
