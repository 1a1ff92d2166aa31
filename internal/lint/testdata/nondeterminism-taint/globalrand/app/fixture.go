// Package app is a striplint fixture outside internal/stats: the
// global math/rand state is forbidden here.
package app

import (
	"math/rand/v2"
)

// Bad draws from the process-global generator, which is seeded from
// the OS at startup.
func Bad() (int, float64) {
	n := rand.IntN(10)     // want "math/rand/v2.IntN draws from the global generator"
	f := rand.Float64()    // want "math/rand/v2.Float64 draws from the global generator"
	rand.Shuffle(n, func(i, j int) {}) // want "math/rand/v2.Shuffle draws from the global generator"
	return n, f
}

// Good builds a seed-explicit generator; its methods are local state
// and deterministic, so they pass.
func Good() int {
	r := rand.New(rand.NewPCG(1, 2))
	return r.IntN(10)
}

// Suppressed is the sanctioned escape hatch.
func Suppressed() float64 {
	//striplint:ignore nondeterminism-taint -- fixture exercises suppression
	return rand.Float64()
}
