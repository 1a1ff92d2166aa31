package metrics

import (
	"repro/internal/model"
)

// ReplicaLag measures how far a replica's installed state trails the
// update stream it imports from its primary, under the paper's two
// staleness criteria at once:
//
//   - MA (maximum age, §2): per object, the span in seconds between
//     the newest generation *received* from the primary and the newest
//     generation *installed* locally. The aggregate is the maximum
//     over all objects — the age of the most out-of-date view.
//   - UU (unapplied update, §2): per object, the count of replicated
//     updates received but not yet installed; the aggregate is their
//     sum — the replica's install backlog.
//
// The tracker follows the same Received/Removed/Installed protocol as
// the simulator's staleness Trackers in this package, so the replica
// scheduler reports queue events once and both criteria stay
// consistent. It is not safe for concurrent use; the strip database
// calls it under its registry lock.
//
// Removal accounting is conservative: a Removed for an object with no
// pending count is ignored (the clamp absorbs mixed local/replicated
// feeds, where a queue drop cannot always be attributed exactly).
type ReplicaLag struct {
	pending  []int     // received-but-not-installed per object
	received []float64 // newest generation received (seconds)
	applied  []float64 // newest generation installed (seconds)
	seen     []bool    // object has received at least one update
	nSeen    int       // objects with seen set
	total    int       // sum of pending
}

// NewReplicaLag returns an empty tracker; objects are added on first
// use, so the replica needs no view count up front.
func NewReplicaLag() *ReplicaLag { return &ReplicaLag{} }

// ensure grows the per-object state to include obj.
func (l *ReplicaLag) ensure(obj model.ObjectID) {
	for len(l.pending) <= int(obj) {
		l.pending = append(l.pending, 0)
		l.received = append(l.received, 0)
		l.applied = append(l.applied, 0)
		l.seen = append(l.seen, false)
	}
}

// Received records a replicated update for obj with the given
// generation time entering the replica.
func (l *ReplicaLag) Received(obj model.ObjectID, gen float64) {
	l.ensure(obj)
	if !l.seen[obj] || gen > l.received[obj] {
		l.received[obj] = gen
	}
	if !l.seen[obj] {
		l.seen[obj] = true
		l.nSeen++
	}
	l.pending[obj]++
	l.total++
}

// Removed records a replicated update for obj leaving the replica's
// queue unapplied (coalesced, expired, evicted or superseded). Under
// MA the object stays lagged until a newer generation installs,
// matching the strict-UU reasoning in §2.
func (l *ReplicaLag) Removed(obj model.ObjectID) {
	l.ensure(obj)
	if l.pending[obj] > 0 {
		l.pending[obj]--
		l.total--
	}
}

// Installed records a replicated update for obj with the given
// generation time being written into the replica's view.
func (l *ReplicaLag) Installed(obj model.ObjectID, gen float64) {
	l.ensure(obj)
	if gen > l.applied[obj] {
		l.applied[obj] = gen
	}
	if l.pending[obj] > 0 {
		l.pending[obj]--
		l.total--
	}
}

// Refreshed records a *local* (non-replicated) install for obj with
// the given generation time. It advances the applied generation — a
// local value newer than everything received leaves the object fresh
// under MA — without touching the pending count, which only counts
// replicated updates.
func (l *ReplicaLag) Refreshed(obj model.ObjectID, gen float64) {
	l.ensure(obj)
	if gen > l.applied[obj] {
		l.applied[obj] = gen
	}
}

// Object returns one object's lag: MA seconds (newest received minus
// newest installed generation, zero when caught up) and UU pending
// count. Unknown objects report zero lag.
func (l *ReplicaLag) Object(obj model.ObjectID) (maSeconds float64, uu int) {
	if int(obj) >= len(l.pending) || int(obj) < 0 {
		return 0, 0
	}
	return l.objectMA(int(obj)), l.pending[obj]
}

// objectMA computes the MA lag for one known object index.
func (l *ReplicaLag) objectMA(i int) float64 {
	if !l.seen[i] {
		return 0
	}
	if d := l.received[i] - l.applied[i]; d > 0 {
		return d
	}
	return 0
}

// Aggregate returns the replica-wide lag: the maximum MA seconds over
// all objects and the total UU backlog. A tracker that has received
// nothing — a primary, whose local installs only ever call Refreshed —
// answers without scanning its objects.
func (l *ReplicaLag) Aggregate() (maSeconds float64, uu int) {
	if l.nSeen == 0 {
		return 0, l.total
	}
	for i := range l.pending {
		if d := l.objectMA(i); d > maSeconds {
			maSeconds = d
		}
	}
	return maSeconds, l.total
}

// Objects returns the number of objects the tracker has seen.
func (l *ReplicaLag) Objects() int { return len(l.pending) }
