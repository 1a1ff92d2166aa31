package repl

import (
	"testing"
	"time"
)

// TestBackoffDeterministic pins the injected-PCG contract: one seed,
// one delay sequence.
func TestBackoffDeterministic(t *testing.T) {
	a := newBackoff(50*time.Millisecond, time.Second, 42)
	b := newBackoff(50*time.Millisecond, time.Second, 42)
	for i := 0; i < 20; i++ {
		if da, db := a.next(), b.next(); da != db {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", i, da, db)
		}
	}
	c := newBackoff(50*time.Millisecond, time.Second, 43)
	a.reset()
	same := true
	for i := 0; i < 5; i++ {
		if a.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical jitter sequences")
	}
}

// TestBackoffDoublesAndClamps checks the envelope: attempt n stays
// within [1-j, 1+j) of min(base<<n, max).
func TestBackoffDoublesAndClamps(t *testing.T) {
	base, max, jitter := 50*time.Millisecond, 400*time.Millisecond, 0.2
	b := newBackoff(base, max, 7)
	for n := 0; n < 10; n++ {
		ideal := base
		for i := 0; i < n && ideal < max; i++ {
			ideal *= 2
		}
		if ideal > max {
			ideal = max
		}
		d := b.next()
		lo := time.Duration(float64(ideal) * (1 - jitter))
		hi := time.Duration(float64(ideal) * (1 + jitter))
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", n, d, lo, hi)
		}
	}
	b.reset()
	if d := b.next(); d > time.Duration(float64(base)*(1+jitter)) {
		t.Errorf("after reset, delay %v not back at base scale", d)
	}
}

// TestBackoffDefaults checks that zero and nonsense config values fall
// back to the documented defaults, and pins the constant jitter.
func TestBackoffDefaults(t *testing.T) {
	b := newBackoff(0, 0, 1)
	if b.base != 50*time.Millisecond {
		t.Errorf("default base = %v, want 50ms", b.base)
	}
	if b.max != 100*b.base {
		t.Errorf("default max = %v, want %v", b.max, 100*b.base)
	}
	if backoffJitter != 0.2 {
		t.Errorf("jitter = %v, want 0.2", backoffJitter)
	}
}
