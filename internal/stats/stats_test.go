package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean[float64](nil) != 0 || Variance[float64](nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax of empty slice should panic")
		}
	}()
	MinMax[float64](nil)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 6})
	if s.Min != 1 || s.Max != 6 || s.Avg != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(6)
	same := true
	a2 := NewRNG(5)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical streams")
	}
}

func TestDerive(t *testing.T) {
	a, b := NewRNG(5).Derive("faults"), NewRNG(5).Derive("faults")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Derive must be deterministic for the same seed and label")
		}
	}
	x, y := NewRNG(5).Derive("faults"), NewRNG(5).Derive("workload")
	same := true
	for i := 0; i < 10; i++ {
		if x.Float64() != y.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different labels gave identical streams")
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(1)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.Normal(10, 2)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.1 {
		t.Errorf("normal mean = %v, want ~10", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.1 {
		t.Errorf("normal std = %v, want ~2", s)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(4)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// Property: variance is non-negative and zero for constant data.
func TestVarianceProperty(t *testing.T) {
	f := func(raw []uint16, c uint16) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		if Variance(xs) < 0 {
			return false
		}
		constant := make([]float64, 10)
		for i := range constant {
			constant[i] = float64(c)
		}
		return Variance(constant) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
