// Negative fixture: a directive that still suppresses a live finding
// is in active use, so unused-ignore stays silent — as does every
// other rule, because the finding is waived.
package sim

import "time"

// Deadline's waiver earns its keep: the wall-clock read below would
// be a nondeterminism-taint finding without it.
func Deadline(budget time.Duration) time.Time {
	//striplint:ignore nondeterminism-taint -- fixture: the directive suppresses the line below
	return time.Now().Add(budget)
}
