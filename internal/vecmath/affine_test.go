package vecmath

import (
	"math/big"
	"math/rand"
	"testing"
)

// roots returns the base values below 2^32 that v ↦ (v·a + b) mod p takes
// to 0, and their neighbours: there v·a + b is a multiple of p, the one
// place where a quotient taken from a reciprocal rounded the other way
// would be one short.
func roots(a, b uint64) []uint32 {
	if a == 0 {
		return nil
	}
	// a^(p-2) is a's inverse mod p.
	inv := new(big.Int).Exp(big.NewInt(int64(a)), big.NewInt(AffineMod-2), big.NewInt(AffineMod)).Uint64()
	v0 := (AffineMod - b) % AffineMod * inv % AffineMod
	var out []uint32
	for v := v0; v < 1<<32; v += AffineMod {
		out = append(out, uint32(v), uint32(v+1), uint32(v-1))
	}
	return out
}

// TestAffineSumMatchesApply holds AffineSum, on each path this process
// has, to affineSumGo, the uint64 sum of the map's values: at every length
// around the 8-value block, around a page of values, at a synthetic job's
// 20 000 rows and past one AVX call's values, over the values at the edges
// of the 16-bit split and of the residues, the values each map takes to a
// multiple of p, and random uint32, for maps whose a and b are 0, 1, p−1 or
// random, the identity and synthetic's affine(1000, 4) then affine(100, 4)
// among them. It also pins the premise of the AVX kernel's quotient: the
// float64 nearest 1/p lies above it.
func TestAffineSumMatchesApply(t *testing.T) {
	if new(big.Rat).SetFloat64(1.0/AffineMod).Cmp(big.NewRat(1, AffineMod)) <= 0 {
		t.Fatal("float64(1/p) is not above 1/p: the AVX kernel's quotient can be one short")
	}
	const p = AffineMod
	rng := rand.New(rand.NewSource(54))
	edges := []uint32{0, 1, p - 1, p, p + 1, 2 * p, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1 << 31, 1<<32 - 1}
	var maps [][2]uint64
	for _, a := range []uint64{0, 1, p - 1} {
		for _, b := range []uint64{0, 1, p - 1} {
			maps = append(maps, [2]uint64{a, b})
		}
	}
	for i := 0; i < 6; i++ {
		maps = append(maps, [2]uint64{uint64(rng.Int63n(p)), uint64(rng.Int63n(p))})
	}
	maps = append(maps, [2]uint64{4900, 699_618_211})
	// past is beyond the values one AVX call sums (sumChunk).
	const past = sumChunk + 5
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4095, 4096, 4097, 20_000, past)
	for k, m := range maps {
		a, b := m[0], m[1]
		special := append(roots(a, b), edges...)
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
			want := affineSumGo(vals, a, b)
			OnEachPath(func(avx bool) {
				if got := AffineSum(vals, a, b); got != want {
					t.Fatalf("avx=%v: map (%d, %d) over %d values: sum %d, want %d", avx, a, b, n, got, want)
				}
			})
		}
	}
	// Every special value alone, on each path: a block of four copies.
	for _, m := range maps {
		a, b := m[0], m[1]
		for _, v := range append(roots(a, b), edges...) {
			want := 4 * ((uint64(v)*a + b) % p)
			OnEachPath(func(avx bool) {
				if got := AffineSum([]uint32{v, v, v, v}, a, b); got != want {
					t.Fatalf("avx=%v: map (%d, %d) at %d: sum %d, want %d", avx, a, b, v, got, want)
				}
			})
		}
	}
}
