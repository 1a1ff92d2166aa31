// Package sim is a striplint fixture: its import path ends in
// internal/sim, so direct wall-clock reads are reported.
package sim

import "time"

var epoch time.Time

// Bad reads the wall clock three ways.
func Bad() (time.Time, time.Duration, time.Duration) {
	now := time.Now()                // want "time.Now reads the wall clock"
	since := time.Since(epoch)       // want "time.Since reads the wall clock"
	until := time.Until(epoch)       // want "time.Until reads the wall clock"
	return now, since, until
}

// Renamed still resolves through the type-checker.
func Renamed() time.Time {
	return clock() // want "sim.clock transitively reaches time.Now"
}

func clock() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

// Allowed uses of package time are fine: durations, constructors,
// parsing and formatting do not read the wall clock.
func Allowed() time.Duration {
	d := 3 * time.Second
	t := time.Unix(0, 42)
	_ = t.Add(d)
	return d
}

// Suppressed documents a sanctioned exception.
func Suppressed() time.Time {
	//striplint:ignore nondeterminism-taint -- fixture exercises standalone suppression
	return time.Now()
}

// SuppressedTrailing uses the same-line form.
func SuppressedTrailing() time.Time {
	return time.Now() //striplint:ignore nondeterminism-taint -- fixture exercises trailing suppression
}
