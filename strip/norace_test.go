//go:build !race

package strip

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
