// Package randuse is a seededrand-rule fixture.
package randuse

import (
	mrand "math/rand"
)

// Global draws from the process-global source — every call is forbidden.
func Global() int {
	mrand.Seed(42)                      // want:seededrand
	f := mrand.Float64()                // want:seededrand
	mrand.Shuffle(3, func(i, j int) {}) // want:seededrand
	return mrand.Intn(10) + int(f)      // want:seededrand
}

// Seeded builds an explicitly seeded generator — the constructors and the
// methods of *rand.Rand are all allowed.
func Seeded(seed int64) int {
	rng := mrand.New(mrand.NewSource(seed))
	return rng.Intn(10) + rng.Perm(3)[0]
}

// Allowed demonstrates the escape comment.
func Allowed() float64 {
	return mrand.Float64() //lint:allow seededrand
}
