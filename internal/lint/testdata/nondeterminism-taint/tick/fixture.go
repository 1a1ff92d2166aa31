// Package tick is a striplint fixture living outside the
// deterministic scope, so only its global draw is reported here. Its
// helpers launder nondeterminism sources into the simulator that
// only the interprocedural taint closure can trace back.
package tick

import (
	"math/rand"
	"time"
)

// Wrapped is what the deterministic fixture calls: the wall clock is
// two helper levels away.
func Wrapped() int64 { return deep() }

func deep() int64 { return time.Now().UnixNano() }

// Roll launders the global math/rand generator one level deep.
func Roll() int { return rand.Int() } // want "math/rand.Int draws from the global generator"

// Keys leaks map iteration order into the returned slice. In an
// out-of-scope helper this is an intrinsic taint source rather than a
// map-order-leak finding.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Pure is deterministic; calls to it must not be flagged.
func Pure(x int) int { return x + 1 }
