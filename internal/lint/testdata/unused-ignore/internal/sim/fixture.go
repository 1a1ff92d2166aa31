// Package sim is a striplint fixture for the unused-ignore meta-rule:
// its import path ends in internal/sim so the determinism rules
// apply, giving the first directive something real to suppress while
// the second has outlived its finding.
package sim

import "time"

// Sanctioned documents a real, suppressed finding: its directive is
// used and must not be reported.
func Sanctioned() time.Time {
	//striplint:ignore nondeterminism-taint -- fixture: directive in active use
	return time.Now()
}

// stale is clean code whose waiver outlived it.
func stale() int {
	//striplint:ignore nondeterminism-taint -- nothing left here // want "//striplint:ignore nondeterminism-taint suppresses nothing"
	return 42
}
