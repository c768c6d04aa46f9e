package synthetic

import (
	"math/big"
	"math/rand"
	"testing"
)

// roots returns the base values below 2^32 that m takes to 0, and their
// neighbours: there x is a multiple of p, the one place where a quotient
// taken from a reciprocal rounded the other way would be one short.
func roots(m affineMap) []uint32 {
	if m.a == 0 {
		return nil
	}
	// a^(p-2) is a's inverse mod p.
	inv := new(big.Int).Exp(big.NewInt(int64(m.a)), big.NewInt(mod-2), big.NewInt(mod)).Uint64()
	v0 := (mod - m.b) % mod * inv % mod
	var out []uint32
	for v := v0; v < 1<<32; v += mod {
		out = append(out, uint32(v), uint32(v+1), uint32(v-1))
	}
	return out
}

// TestAffineSumMatchesApply holds sum, on every path this machine runs, to
// sumGo, the uint64 sum of apply: at every length around the 8-value block,
// around a page of values, at a synthetic job's 20 000 rows and past one AVX
// call's values, over the values at the edges of the 16-bit split and of the
// residues, the values each map takes to a multiple of p, and random uint32,
// for maps whose a and b are 0, 1, p−1 or random, the identity among them.
// It also pins the premise of the AVX kernel's quotient: the float64 nearest
// 1/p lies above it.
func TestAffineSumMatchesApply(t *testing.T) {
	if new(big.Rat).SetFloat64(1.0/mod).Cmp(big.NewRat(1, mod)) <= 0 {
		t.Fatal("float64(1/p) is not above 1/p: the AVX kernel's quotient can be one short")
	}
	rng := rand.New(rand.NewSource(54))
	edges := []uint32{0, 1, mod - 1, mod, mod + 1, 2 * mod, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1 << 31, 1<<32 - 1}
	var maps []affineMap
	for _, a := range []uint64{0, 1, mod - 1} {
		for _, b := range []uint64{0, 1, mod - 1} {
			maps = append(maps, affineMap{a: a, b: b})
		}
	}
	for i := 0; i < 6; i++ {
		maps = append(maps, affineMap{a: uint64(rng.Int63n(mod)), b: uint64(rng.Int63n(mod))})
	}
	maps = append(maps, affine(1000, 4).then(affine(100, 4)))
	// past is beyond the values one AVX call sums (sumChunk).
	const past = 1<<22 + 5
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4095, 4096, 4097, 20_000, past)
	for k, m := range maps {
		special := append(roots(m), edges...)
		for _, n := range lengths {
			if n == past && k%4 != 0 {
				continue // past one call for every fourth map, to keep the test quick
			}
			vals := make([]uint32, n)
			for i := range vals {
				if rng.Intn(2) == 0 {
					vals[i] = special[rng.Intn(len(special))]
				} else {
					vals[i] = rng.Uint32()
				}
			}
			want := m.sumGo(vals)
			for _, avx := range testPaths() {
				var got uint64
				onPath(avx, func() { got = m.sum(vals) })
				if got != want {
					t.Fatalf("avx=%v: map %+v over %d values: sum %d, want %d", avx, m, n, got, want)
				}
			}
		}
	}
	// Every special value alone, on each path: a block of four copies.
	for _, m := range maps {
		for _, v := range append(roots(m), edges...) {
			vals := []uint32{v, v, v, v}
			for _, avx := range testPaths() {
				var got uint64
				onPath(avx, func() { got = m.sum(vals) })
				if want := 4 * uint64(m.apply(v)); got != want {
					t.Fatalf("avx=%v: map %+v at %d: sum %d, want %d", avx, m, v, got, want)
				}
			}
		}
	}
}

// sumSink keeps BenchmarkAffineSum's sums from being optimised away.
var sumSink uint64

// BenchmarkAffineSum times the scored pass over a synthetic job's 20 000
// generated values on the /avx and the /go path.
func BenchmarkAffineSum(b *testing.B) {
	p := Defaults()
	p.Rows = 20_000
	c := Generate(p).Parts[0].Col.(*pairs)
	m := affine(1000, 4).then(affine(100, 4))
	for _, avx := range testPaths() {
		name := "go"
		if avx {
			name = "avx"
		}
		b.Run(name, func(b *testing.B) {
			onPath(avx, func() {
				for i := 0; i < b.N; i++ {
					sumSink = m.sum(c.vals)
				}
			})
		})
	}
}
