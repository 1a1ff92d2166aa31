// Package stats is where the seeded wrapper lives, and it has no
// exemption: the wrapper needs only the seed-explicit constructors,
// so a global draw here is reported like anywhere else.
package stats

import "math/rand/v2"

// NoExemption draws from the global generator inside the wrapper's
// own package.
func NoExemption() float64 {
	return rand.Float64() // want "math/rand/v2.Float64 draws from the global generator"
}
