package faults

import "math/rand"

// This file holds the victim shuffle: exported for this package's tests, which read
// it, and called by no shipped code.

// Shuffle is a tiny helper for deterministic victim sampling in tests.
func Shuffle(rng *rand.Rand, items []string) []string {
	out := append([]string(nil), items...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
