// Package sim is a striplint fixture: its import path ends in
// internal/sim, so the deterministic-package rules apply. Every
// nondeterminism source here hides behind helpers in package tick,
// out of reach of any per-package check — only the taint closure
// sees them.
package sim

import (
	"os"

	"repro/internal/lint/testdata/nondeterminism-taint/tick"
)

func Clocked() int64 {
	return tick.Wrapped() // want "tick.Wrapped transitively reaches time.Now \\(wall clock\\)"
}

func Rolled() int {
	return tick.Roll() // want "tick.Roll transitively reaches math/rand.Int \\(global generator\\)"
}

func Ordered(m map[string]int) []string {
	return tick.Keys(m) // want "tick.Keys transitively reaches map iteration order"
}

// Env reads the process environment directly, which is reported as
// a direct use.
func Env() string {
	return os.Getenv("STRIP_SEED") // want "os.Getenv \\(process environment\\) read inside deterministic package"
}

// Fine calls an untainted helper and stays silent.
func Fine(x int) int {
	return tick.Pure(x)
}

// Suppressed documents a sanctioned exception.
func Suppressed() int64 {
	//striplint:ignore nondeterminism-taint -- fixture exercises suppression of a taint finding
	return tick.Wrapped()
}
