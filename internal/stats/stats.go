// Package stats provides the shared numeric helpers used by the workloads
// and the experiment harness: summary statistics and seeded random variate
// generation.
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// The summary helpers are generic over any float64-representation type, so
// they work directly on unit-typed quantities (e.g. []sim.VTime) as well as
// raw []float64 without stripping the unit first.

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean[F ~float64](xs []F) F {
	if len(xs) == 0 {
		return 0
	}
	s := F(0)
	for _, x := range xs {
		s += x
	}
	return s / F(len(xs))
}

// Variance returns the population variance of xs.
func Variance[F ~float64](xs []F) F {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := F(0)
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / F(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev[F ~float64](xs []F) F { return F(math.Sqrt(float64(Variance(xs)))) }

// MinMax returns the minimum and maximum of xs; it panics on empty input.
func MinMax[F ~float64](xs []F) (lo, hi F) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return lo, hi
}

// Summary is a min/avg/max triple; the paper reports the average of 3 runs
// with min and max as error bars (§6).
type Summary struct {
	Min, Avg, Max float64
}

// Summarize computes a Summary over xs; it panics on empty input.
func Summarize[F ~float64](xs []F) Summary {
	lo, hi := MinMax(xs)
	return Summary{Min: float64(lo), Avg: float64(Mean(xs)), Max: float64(hi)}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f]", s.Avg, s.Min, s.Max)
}

// RNG wraps a seeded source of the random variates used by the synthetic
// data generators. A nil RNG is not usable; construct with NewRNG.
//
// RNG exists so that every draw in the repository is replayable from a
// seed threaded through options: the top-level math/rand functions (the
// process-global source) are forbidden in internal/ by the seededrand rule
// of mdf lint (see internal/analysis).
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG { return &RNG{r: rand.New(rand.NewSource(seed))} }

// Derive returns an independent generator whose seed is a deterministic
// function of g's next draw and the label, for giving each component of a
// run (workload, fault plan, hint) its own replayable stream.
func (g *RNG) Derive(label string) *RNG {
	seed := g.r.Int63()
	for _, c := range label {
		seed = seed*1099511628211 + int64(c) // FNV-style fold, stays deterministic
	}
	return NewRNG(seed)
}

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform variate in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Normal returns a normal variate with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, std float64) float64 { return mean + std*g.r.NormFloat64() }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer, for deriving child
// seeds.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
