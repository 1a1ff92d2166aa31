// Package clock is outside the deterministic scope, so wall-clock
// reads are allowed here: the rule must stay silent (and -scope can
package clock

import "time"

// Now is fine: this package's import path matches no deterministic
// package suffix.
func Now() time.Time { return time.Now() }
