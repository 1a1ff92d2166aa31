// Package strip is a soft real-time, in-memory database that ingests
// external update streams while running value- and deadline-bearing
// transactions — a working implementation of the system modelled in
// Adelberg, Garcia-Molina and Kao, "Applying Update Streams in a Soft
// Real-Time Database System" (SIGMOD 1995), and of the STRIP system
// that paper was written for.
//
// The database holds two kinds of data. View objects mirror an
// external world (market prices, sensor readings); they are refreshed
// exclusively by the update stream and are read-only to transactions.
// General data is ordinary key/value state read and written by
// transactions.
//
// A single scheduler goroutine plays the role of the paper's
// controller and CPU: it multiplexes between installing updates and
// executing transactions according to a scheduling policy
// (UpdatesFirst, TransactionsFirst, SplitUpdates, OnDemand), tracks
// data staleness under a configurable criterion (maximum age or
// unapplied-update), and enforces firm transaction deadlines.
// Transactions execute as closures on the scheduler goroutine; view
// reads are the cooperative scheduling points at which update
// installation can "preempt" a transaction, mirroring the model's
// preemption semantics.
//
// A minimal session:
//
//	db, _ := strip.Open(strip.Config{
//		Policy:  strip.OnDemand,
//		MaxAge:  5 * time.Second,
//		OnStale: strip.Warn,
//	})
//	defer db.Close()
//	db.DefineView("DEM/USD.LON", strip.High)
//	db.ApplyUpdate(strip.Update{Object: "DEM/USD.LON", Value: 1.6612, Generated: time.Now()})
//
//	res := db.Exec(strip.TxnSpec{
//		Value:    2.0,
//		Deadline: time.Now().Add(50 * time.Millisecond),
//		Func: func(tx *strip.Tx) error {
//			px, err := tx.Read("DEM/USD.LON")
//			if err != nil {
//				return err
//			}
//			tx.Set("last-price", px.Value)
//			return nil
//		},
//	})
package strip

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/strip/fault"
	"repro/strip/obs"
)

// Policy selects how the scheduler divides time between installing
// updates and running transactions (§4 of the paper). It is the
// simulator's policy type: the live scheduler and the simulated
// controller consult the same decision table (sched.Next), so the
// names below are the public names of the shared values. The
// simulator-only fixed-CPU-fraction policy is rejected by Open.
type Policy = sched.Policy

const (
	// UpdatesFirst installs every pending update before and during
	// (at read points) any transaction work.
	UpdatesFirst = sched.UF
	// TransactionsFirst runs transactions whenever any are queued;
	// updates are installed only in idle time.
	TransactionsFirst = sched.TF
	// SplitUpdates treats updates to High-importance views like
	// UpdatesFirst and updates to Low-importance views like
	// TransactionsFirst.
	SplitUpdates = sched.SU
	// OnDemand is TransactionsFirst plus in-line refresh: a
	// transaction reading a stale view first applies a suitable
	// pending update from the queue.
	OnDemand = sched.OD
)

// Importance classifies view objects for the SplitUpdates policy and
// for monitoring.
type Importance = model.Importance

const (
	// Low importance views may go stale under pressure.
	Low = model.Low
	// High importance views are kept fresh by SplitUpdates.
	High = model.High
)

var errImportance = errors.New("strip: importance is neither Low nor High")

// checkImportance rejects a class the scheduler's queue has no
// partition for. Every path that defines a view from outside input
// (DefineView, a replicated update, a snapshot) passes through it.
func checkImportance(imp Importance) error {
	if imp < Low || imp > High {
		return errImportance
	}
	return nil
}

// StaleAction selects what a transaction does when it reads a stale
// view (§2 of the paper).
type StaleAction int

const (
	// Ignore completes the transaction normally; staleness is only
	// visible in Result.ReadStale and the statistics.
	Ignore StaleAction = iota
	// Warn completes the transaction but records the stale object
	// names in Result.StaleReads — the paper's "red light".
	Warn
	// Abort fails the read with ErrStaleRead and dooms the
	// transaction (under OnDemand, only when no queued update could
	// refresh the object).
	Abort
)

// String names the action.
func (a StaleAction) String() string {
	switch a {
	case Warn:
		return "warn"
	case Abort:
		return "abort"
	default:
		return "ignore"
	}
}

// Errors returned by the database.
var (
	// ErrClosed reports use of a closed database.
	ErrClosed = errors.New("strip: database closed")
	// ErrUnknownObject reports a read of an undefined view object.
	ErrUnknownObject = errors.New("strip: unknown view object")
	// ErrStaleRead reports a stale view read under the Abort action.
	ErrStaleRead = errors.New("strip: stale read")
	// ErrDeadlineExceeded reports that the transaction's firm
	// deadline passed.
	ErrDeadlineExceeded = errors.New("strip: transaction deadline exceeded")
	// ErrDuplicateObject reports a second DefineView for a name.
	ErrDuplicateObject = errors.New("strip: view object already defined")
	// ErrInTransaction reports a nested Exec from inside a
	// transaction function.
	ErrInTransaction = errors.New("strip: nested transactions are not supported")
	// ErrDurability reports that a commit could not be made durable:
	// the write-ahead log failed to record it. The failed batch is not
	// applied — the caller sees consistent all-or-nothing behaviour —
	// and the database enters degraded mode: further commits fail fast
	// with this error while view ingest and reads continue (view data
	// is re-derivable from the update stream and does not need the
	// log). A successful Checkpoint heals the log and ends degraded
	// mode. Test with errors.Is.
	ErrDurability = errors.New("strip: durability failure")
)

// Config configures a database. The zero value is usable: policy
// OnDemand semantics are the paper's recommendation, but the zero
// Policy is UpdatesFirst by enum order, so set Policy explicitly.
type Config struct {
	// Policy is the scheduling algorithm (default UpdatesFirst).
	Policy Policy
	// MaxAge, when positive, enables the MA staleness criterion: a
	// view is stale when now - generation time exceeds MaxAge. When
	// zero, the UU criterion is used instead: a view is stale while
	// an update for it waits in the queue.
	MaxAge time.Duration
	// OnStale is the action on stale view reads (default Ignore).
	OnStale StaleAction
	// QueueCapacity bounds the update queue; the oldest update is
	// dropped on overflow. Default 8192.
	QueueCapacity int
	// IngestBuffer is the capacity of the arrival buffer between
	// producers and the scheduler (the paper's OS queue). Arrivals
	// beyond it are dropped and counted. Default 4096.
	IngestBuffer int
	// LIFO installs queued updates newest-generation-first. The
	// default is FIFO (oldest first).
	LIFO bool
	// Coalesce keeps only the newest queued update per object (the
	// paper's proposed coalescing queue), found through the queue's
	// per-object index. Recommended; default off
	// to match the paper's baseline. Coalescing drops superseded
	// partial updates wholesale, so leave it off for views fed by
	// partial updates.
	Coalesce bool
	// HistoryDepth, when positive, keeps that many past versions of
	// every view object and enables Tx.ReadAsOf — the paper's
	// "historical views" future-work item. Each view installed since
	// Open then carries a version ring in a side table: 16 B per
	// retained version plus about 70 B for the ring and its table slot
	// (≈ 200 B per view at depth 8). Zero disables history and costs
	// nothing per view.
	HistoryDepth int
	// WALPath, when set, enables a write-ahead log for general data:
	// committed Set operations are logged and replayed on the next
	// Open with the same path. View data is not logged — it is
	// re-derivable from the update stream.
	WALPath string
	// FS overrides the filesystem the write-ahead log and checkpoint
	// machinery write through; nil means the real filesystem. Tests
	// substitute a fault.MemFS to inject write errors, torn writes,
	// failed syncs and byte-exact crash points.
	FS fault.FS
	// Clock overrides the time source (tests). Default time.Now.
	Clock func() time.Time
	// ReplicationEpoch identifies this database instance's replication
	// history in the resume handshake (see strip/repl): a replica
	// presenting a sequence from a different epoch is re-bootstrapped
	// from a snapshot instead of resuming into a stream its numbers do
	// not describe. Zero derives an epoch from the Clock at Open.
	ReplicationEpoch uint64
	// Metrics, when set, is the registry the database registers its
	// metric series into (see DB.Metrics); pass one shared registry to
	// expose the database next to repl/elect series on one endpoint.
	// Nil creates a private registry — the series always exist.
	Metrics *obs.Registry
	// TraceDepth, when positive, keeps a ring of that many recent
	// end-to-end update traces, readable via DB.Traces. Zero disables
	// tracing; per-stage latency histograms are unaffected (except the
	// trigger span, which is only measured while tracing is active —
	// see install).
	TraceDepth int

	// defaultedClock records that fill substituted time.Now for a nil
	// Clock. The instrumentation then reads time through the monotonic
	// clock (time.Since from Open) instead of a full time.Now, which
	// costs roughly half as much per reading on the kernels this was
	// measured on — and the hot path takes two readings per install.
	defaultedClock bool
}

func (c *Config) fill() {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 8192
	}
	if c.IngestBuffer <= 0 {
		c.IngestBuffer = 4096
	}
	if c.Clock == nil {
		c.Clock = time.Now
		c.defaultedClock = true
	}
}

// validate rejects configurations that cannot work.
func (c *Config) validate() error {
	switch c.Policy {
	case UpdatesFirst, TransactionsFirst, SplitUpdates, OnDemand:
	default:
		return fmt.Errorf("strip: unknown policy %v", c.Policy)
	}
	switch c.OnStale {
	case Ignore, Warn, Abort:
	default:
		return fmt.Errorf("strip: unknown stale action %v", c.OnStale)
	}
	if c.MaxAge < 0 {
		return fmt.Errorf("strip: negative MaxAge %v", c.MaxAge)
	}
	if c.HistoryDepth < 0 {
		return fmt.Errorf("strip: negative HistoryDepth %d", c.HistoryDepth)
	}
	return nil
}

// Update is one element of an external update stream: a complete new
// value for a single view object.
type Update struct {
	// Object names the view object to refresh.
	Object string
	// Value is the new value.
	Value float64
	// Fields optionally carries named attributes for record views.
	// On a complete update (Partial false) the attribute set replaces
	// the stored one; on a partial update only the named attributes
	// change. A view holding attributes keeps them in a map in a side
	// table, about 300 B per view for up to eight attributes (plus
	// their key strings); a view that never receives any pays nothing.
	Fields map[string]float64
	// Partial marks a §2 partial update: only Fields are applied;
	// Value and unnamed attributes are retained.
	Partial bool
	// Generated is when the external source produced the value. A
	// zero time means "now" at ingest.
	Generated time.Time
}

// Entry is a view object's current value and its provenance.
type Entry struct {
	// Object is the view object name.
	Object string
	// Value is the installed value.
	Value float64
	// Fields holds the record view's named attributes, nil for plain
	// scalar views. The map is a copy and safe to retain.
	Fields map[string]float64
	// Generated is the generation time of the installed value; zero
	// if never updated.
	Generated time.Time
	// Stale reports whether the value was stale at read time.
	Stale bool
}

// Stats is a snapshot of database counters.
type Stats struct {
	// UpdatesReceived counts updates accepted into the system.
	UpdatesReceived uint64
	// UpdatesDropped counts arrivals rejected by a full ingest
	// buffer, or still in it when Close stopped the scheduler.
	UpdatesDropped uint64
	// FeedMalformed counts feed lines Serve could not parse as an
	// update (see ParseUpdateLine) and skipped.
	FeedMalformed uint64
	// UpdatesInstalled counts values written into views.
	UpdatesInstalled uint64
	// UpdatesSkipped counts updates superseded by a newer generation
	// (worthiness check) or coalesced away.
	UpdatesSkipped uint64
	// UpdatesExpired counts queued updates discarded for exceeding
	// MaxAge.
	UpdatesExpired uint64
	// UpdatesEvicted counts updates dropped by queue overflow.
	UpdatesEvicted uint64
	// QueueLen is the current update-queue length.
	QueueLen int

	// TxnsSubmitted counts Exec calls admitted.
	TxnsSubmitted uint64
	// TxnsCommitted counts transactions that committed by their
	// deadline.
	TxnsCommitted uint64
	// TxnsCommittedStale counts commits that read stale data.
	TxnsCommittedStale uint64
	// TxnsAbortedDeadline counts firm-deadline aborts.
	TxnsAbortedDeadline uint64
	// TxnsAbortedStale counts aborts due to stale reads.
	TxnsAbortedStale uint64
	// TxnsFailed counts transactions whose function returned an
	// unrelated error.
	TxnsFailed uint64
	// TxnsFailedDurability counts transactions that failed because
	// their commit could not be made durable (ErrDurability); they are
	// a subset of TxnsFailed.
	TxnsFailedDurability uint64
	// ValueCommitted sums the value of committed transactions.
	ValueCommitted float64

	// WALErrors counts write-ahead log I/O failures (append, sync or
	// rotation).
	WALErrors uint64
	// Degraded reports the database is in degraded durability mode:
	// commits fail fast with ErrDurability until a Checkpoint heals
	// the log.
	Degraded bool
	// DegradedHeals counts degraded episodes ended by a successful
	// Checkpoint.
	DegradedHeals uint64

	// ReplicationSeq is the replication sequence number: how many
	// events (worthy installs and committed batches) this database has
	// published to its replication sink.
	ReplicationSeq uint64
	// ReplBatchesApplied counts write batches applied from a primary.
	ReplBatchesApplied uint64
	// ReplSnapshotsInstalled counts bootstrap snapshots installed from
	// a primary.
	ReplSnapshotsInstalled uint64
	// ReplicaLagSeconds is the MA replication lag: the seconds by
	// which the most out-of-date view trails the newest generation
	// received from the primary (§2's maximum-age criterion applied to
	// the imported stream).
	ReplicaLagSeconds float64
	// ReplicaLagUpdates is the UU replication lag: replicated updates
	// received but not yet installed (§2's unapplied-update criterion).
	ReplicaLagUpdates int
}
