package repl

import (
	"math/rand/v2"
	"time"
)

// backoffJitter is the fraction of each reconnect delay randomized.
const backoffJitter = 0.2

// backoff produces the replica's reconnect delays: exponential
// doubling from base to max, with a multiplicative jitter drawn from
// an injected seeded PCG so a given seed yields one reproducible
// delay sequence (and striplint's determinism rules see no global
// randomness).
type backoff struct {
	base time.Duration
	max  time.Duration
	rng  *rand.Rand
	n    int // consecutive failures so far
}

// newBackoff returns a backoff policy seeded deterministically.
func newBackoff(base, max time.Duration, seed uint64) *backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max < base {
		max = 100 * base
	}
	return &backoff{
		base: base,
		max:  max,
		rng:  rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// next returns the delay before the next attempt and advances the
// failure count.
func (b *backoff) next() time.Duration {
	d := b.base
	for i := 0; i < b.n && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.n++
	// Scale by a factor in [1-jitter, 1+jitter).
	f := 1 - backoffJitter + 2*backoffJitter*b.rng.Float64()
	return time.Duration(float64(d) * f)
}

// reset clears the failure count after a healthy session.
func (b *backoff) reset() { b.n = 0 }
