package strip

import (
	"time"

	"repro/strip/obs"
)

// dbObs is the database's observability surface: the metric series it
// observes on the hot path plus scratch used to assemble per-update
// traces. It always exists — when Config.Metrics is nil the database
// registers into a private registry — so the instrumentation cost is
// paid (and benchmarked) unconditionally rather than hiding behind a
// nil check the benchmarks would never take.
//
// The scratch fields (installEnd, run) are written inside a run's
// critical section and read by afterRun on the scheduler goroutine
// immediately after; they carry state between the two halves of one
// run without allocating.
type dbObs struct {
	reg *obs.Registry

	// stage holds one latency histogram per pipeline stage.
	stage [obs.NumStages]*obs.Histogram

	// staleness is the install-time age of every worthy install: how
	// old the value already was when it became visible (the MA axis).
	staleness *obs.Histogram
	// replicaLag is the same age restricted to replicated installs —
	// the distribution behind Stats.ReplicaLagSeconds' point reading.
	replicaLag *obs.Histogram
	// uuBacklog samples the update-queue length at every enqueue (the
	// UU axis: how many unapplied updates an arrival queues behind).
	uuBacklog *obs.Histogram
	// commitLatency is submit-to-finish time of committed transactions.
	commitLatency *obs.Histogram

	// ring holds recent full traces; nil when Config.TraceDepth <= 0.
	ring *obs.TraceRing

	// installEnd is the clock reading that closed the last run with a
	// worthy install (endRunLocked); afterRun subtracts it from the
	// post-trigger reading to get the trigger span.
	installEnd int64
	// run holds the traces under assembly for the current run's worthy
	// installs; it stays empty (and unallocated) without a ring.
	run []obs.Trace
}

// newDBObs builds the database's metric series in reg (a private
// registry when nil) and mirrors the Stats counters into it. Mirrors
// are snapshot-time funcs over db.Stats(), so the hot path maintains
// one set of counters and the scrape pays the read.
func newDBObs(db *DB, reg *obs.Registry, traceDepth int) *dbObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &dbObs{reg: reg, ring: obs.NewTraceRing(traceDepth)}
	if o.ring != nil {
		o.run = make([]obs.Trace, 0, installRunLen)
	}

	for i := range o.stage {
		o.stage[i] = reg.Histogram(
			"strip_pipeline_"+obs.Stage(i).String()+"_seconds",
			"latency of the "+obs.Stage(i).String()+" pipeline stage",
			obs.LatencyBuckets(), 1e9)
	}
	o.staleness = reg.Histogram("strip_staleness_seconds",
		"age of the value at install time (MA criterion axis)",
		obs.AgeBuckets(), 1e9)
	o.replicaLag = reg.Histogram("strip_replica_lag_install_seconds",
		"install-time age of replicated updates",
		obs.AgeBuckets(), 1e9)
	o.uuBacklog = reg.Histogram("strip_uu_backlog_updates",
		"update-queue length observed at enqueue (UU criterion axis)",
		obs.CountBuckets(), 1)
	o.commitLatency = reg.Histogram("strip_txn_commit_seconds",
		"submit-to-finish latency of committed transactions",
		obs.LatencyBuckets(), 1e9)

	counter := func(name, help string, read func(Stats) uint64) {
		reg.CounterFunc(name, help, func() uint64 { return read(db.Stats()) })
	}
	counter("strip_updates_received_total", "updates accepted into the system",
		func(s Stats) uint64 { return s.UpdatesReceived })
	counter("strip_updates_dropped_total", "arrivals rejected by a full ingest buffer",
		func(s Stats) uint64 { return s.UpdatesDropped })
	counter("strip_feed_malformed_total", "feed lines that did not parse as an update",
		func(s Stats) uint64 { return s.FeedMalformed })
	counter("strip_updates_installed_total", "values written into views",
		func(s Stats) uint64 { return s.UpdatesInstalled })
	counter("strip_updates_skipped_total", "updates superseded or coalesced away",
		func(s Stats) uint64 { return s.UpdatesSkipped })
	counter("strip_updates_expired_total", "queued updates discarded for exceeding MaxAge",
		func(s Stats) uint64 { return s.UpdatesExpired })
	counter("strip_updates_evicted_total", "updates dropped by queue overflow",
		func(s Stats) uint64 { return s.UpdatesEvicted })
	counter("strip_txns_submitted_total", "Exec calls admitted",
		func(s Stats) uint64 { return s.TxnsSubmitted })
	counter("strip_txns_committed_total", "transactions committed by their deadline",
		func(s Stats) uint64 { return s.TxnsCommitted })
	counter("strip_txns_committed_stale_total", "commits that read stale data",
		func(s Stats) uint64 { return s.TxnsCommittedStale })
	counter("strip_txns_aborted_deadline_total", "firm-deadline aborts",
		func(s Stats) uint64 { return s.TxnsAbortedDeadline })
	counter("strip_txns_aborted_stale_total", "aborts due to stale reads",
		func(s Stats) uint64 { return s.TxnsAbortedStale })
	counter("strip_txns_failed_total", "transactions whose function returned an error",
		func(s Stats) uint64 { return s.TxnsFailed })
	counter("strip_txns_failed_durability_total", "transactions failed by ErrDurability",
		func(s Stats) uint64 { return s.TxnsFailedDurability })
	counter("strip_wal_errors_total", "write-ahead log I/O failures",
		func(s Stats) uint64 { return s.WALErrors })
	counter("strip_degraded_heals_total", "degraded episodes ended by a Checkpoint",
		func(s Stats) uint64 { return s.DegradedHeals })
	counter("strip_replication_seq", "replication sequence number (published state changes)",
		func(s Stats) uint64 { return s.ReplicationSeq })
	counter("strip_repl_batches_applied_total", "write batches applied from a primary",
		func(s Stats) uint64 { return s.ReplBatchesApplied })
	counter("strip_repl_snapshots_installed_total", "bootstrap snapshots installed from a primary",
		func(s Stats) uint64 { return s.ReplSnapshotsInstalled })

	gauge := func(name, help string, read func(Stats) float64) {
		reg.GaugeFunc(name, help, func() float64 { return read(db.Stats()) })
	}
	gauge("strip_queue_len", "current update-queue length",
		func(s Stats) float64 { return float64(s.QueueLen) })
	gauge("strip_degraded", "1 while in degraded durability mode",
		func(s Stats) float64 {
			if s.Degraded {
				return 1
			}
			return 0
		})
	gauge("strip_value_committed_total", "summed value of committed transactions",
		func(s Stats) float64 { return s.ValueCommitted })
	gauge("strip_replica_lag_seconds", "MA replication lag of the most out-of-date view",
		func(s Stats) float64 { return s.ReplicaLagSeconds })
	gauge("strip_replica_lag_updates", "UU replication lag (received but uninstalled updates)",
		func(s Stats) float64 { return float64(s.ReplicaLagUpdates) })
	reg.GaugeFunc("strip_staleness_max_seconds",
		"worst install-time age ever observed over all objects",
		func() float64 {
			db.mu.RLock()
			defer db.mu.RUnlock()
			return db.maxStale.Max()
		})
	return o
}

// Metrics returns the registry this database's series live in: the
// one supplied in Config.Metrics, or the private registry created at
// Open. Serve it with obs.NewMux or render it with WriteText.
func (db *DB) Metrics() *obs.Registry { return db.obs.reg }

// Traces returns the most recent end-to-end update traces, newest
// first; nil unless Config.TraceDepth is positive.
func (db *DB) Traces() []obs.Trace { return db.obs.ring.Snapshot() }

// MaxStaleness returns the worst install-time age (seconds) ever
// observed for the named object, i.e. how old its value was at the
// moment it became visible, at the worst point in this database's
// history.
func (db *DB) MaxStaleness(name string) (float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	id, ok := db.idLocked(name)
	if !ok {
		return 0, ErrUnknownObject
	}
	return db.maxStale.Object(id), nil
}

// nowNanos reads the instrumentation time axis in Unix nanoseconds.
// An injected Config.Clock is read directly, so simulated time
// observes simulated spans (and two runs with the same fake clock
// observe identical ones). With the default clock the reading is
// derived from the monotonic elapsed time since Open: one monotonic
// clock read, which costs roughly half of a full time.Now on the
// kernels this was measured on — and the install path takes two
// readings per update.
func (db *DB) nowNanos() int64 {
	if db.cfg.defaultedClock {
		return db.startNanos + int64(time.Since(db.start))
	}
	return db.cfg.Clock().UnixNano()
}

// arrivalStamp reads the clock once for an offer, on both axes an
// update carries: seconds since Open (the queue structures' axis) and
// Unix nanoseconds (the generation stamp of an update that brought
// none). Under the default clock it is the one monotonic reading
// nowNanos takes — ApplyUpdate runs once per offered update, and on the
// feed path a producer's nanosecond counts as much as the scheduler's —
// so the stamps of one process never step backwards with the wall
// clock. An injected Config.Clock is read directly.
func (db *DB) arrivalStamp() (secs float64, unixNanos int64) {
	if db.cfg.defaultedClock {
		since := time.Since(db.start)
		return since.Seconds(), db.startNanos + int64(since)
	}
	now := db.cfg.Clock()
	return db.secs(now), now.UnixNano()
}
