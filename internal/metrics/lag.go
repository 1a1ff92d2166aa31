package metrics

import (
	"math"

	"repro/internal/model"
)

// ReplicaLag measures how far a replica's installed state trails the
// update stream it imports from its primary, under the paper's two
// staleness criteria at once:
//
//   - MA (maximum age, §2): per object, the span in seconds between
//     the newest generation *received* from the primary and the
//     generation *installed* locally. The aggregate is the maximum
//     over all objects — the age of the most out-of-date view.
//   - UU (unapplied update, §2): per object, the count of replicated
//     updates received but not yet settled; the aggregate is their
//     sum — the replica's install backlog.
//
// The tracker keeps only what the replica's catalog does not: per
// object, the newest generation received and the pending count. The
// installed generation is the catalog's own, which the caller passes
// to Object and Aggregate, so the two can never disagree. Generations
// are Unix nanoseconds. Accounts exist only for objects a replicated
// update has been received for: a database that never receives one
// holds none. It is not safe for concurrent use; the strip database
// calls it under its catalog lock.
//
// Settle accounting is conservative: a Settled for an object with no
// pending count is ignored (the clamp absorbs mixed local/replicated
// feeds, where a queue drop cannot always be attributed exactly).
type ReplicaLag struct {
	accts []lagAccount // by object, up to the highest one received for
	total int          // sum of pending
}

// lagAccount is one object's receipts.
type lagAccount struct {
	received int64 // newest generation received; noReceipt when none
	pending  int32 // received but not yet settled
}

// noReceipt marks an account whose object has received no generation
// (or whose receipts Forget discarded): its MA lag is zero.
const noReceipt = math.MinInt64

// Received records a replicated update for obj with the given
// generation entering the replica's queue. A generation of
// math.MinInt64 counts the update as backlog without advancing the
// newest receipt.
func (l *ReplicaLag) Received(obj model.ObjectID, gen int64) {
	for len(l.accts) <= int(obj) {
		l.accts = append(l.accts, lagAccount{received: noReceipt})
	}
	a := &l.accts[obj]
	a.received = max(a.received, gen)
	a.pending++
	l.total++
}

// Settled records a replicated update for obj leaving the replica's
// queue, installed or not (coalesced, expired, evicted or superseded).
// An update that leaves uninstalled does not narrow MA: the object
// stays lagged until a newer generation installs, matching the
// strict-UU reasoning in §2.
func (l *ReplicaLag) Settled(obj model.ObjectID) {
	if int(obj) < len(l.accts) && l.accts[obj].pending > 0 {
		l.accts[obj].pending--
		l.total--
	}
}

// Forget discards obj's newest receipt, keeping its backlog: the
// receipts came from a stream whose state the replica has abandoned
// (ResetToSnapshot), so they no longer measure its lag.
func (l *ReplicaLag) Forget(obj model.ObjectID) {
	if int(obj) < len(l.accts) {
		l.accts[obj].received = noReceipt
	}
}

// Object returns one object's lag against its installed generation
// applied: MA seconds (newest received minus applied, zero when caught
// up) and UU pending count. Objects without an account report zero.
func (l *ReplicaLag) Object(obj model.ObjectID, applied int64) (maSeconds float64, uu int) {
	if int(obj) >= len(l.accts) || obj < 0 {
		return 0, 0
	}
	a := l.accts[obj]
	return a.ma(applied), int(a.pending)
}

// ma is the account's MA lag in seconds against applied.
func (a lagAccount) ma(applied int64) float64 {
	if a.received == noReceipt || a.received <= applied {
		return 0
	}
	return float64(a.received-applied) / 1e9
}

// Aggregate returns the replica-wide lag: the maximum MA seconds over
// all accounts, each against applied(obj), and the total UU backlog.
func (l *ReplicaLag) Aggregate(applied func(model.ObjectID) int64) (maSeconds float64, uu int) {
	for i, a := range l.accts {
		if a.received != noReceipt {
			maSeconds = max(maSeconds, a.ma(applied(model.ObjectID(i))))
		}
	}
	return maSeconds, l.total
}
