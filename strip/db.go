package strip

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/uqueue"
	"repro/strip/fault"
	"repro/strip/obs"
)

// DB is a soft real-time database instance. All methods are safe for
// concurrent use; transactions and update installation execute on a
// single internal scheduler goroutine, which is the system's "CPU".
type DB struct {
	cfg   Config
	start time.Time
	// startNanos caches start.UnixNano(): the base the observability
	// layer adds monotonic elapsed readings and float-seconds arrival
	// stamps to (see nowNanos and arrivalNanos).
	startNanos int64

	ingestCh chan *model.Update
	txnCh    chan *txnReq
	stopCh   chan struct{}
	done     chan struct{}

	// mu guards the registry, view entries, general store and stats.
	// The update queue and ready list are owned by the scheduler
	// goroutine and need no locking.
	mu      sync.RWMutex
	names   map[string]model.ObjectID
	defs    []viewDef
	entries []viewEntry
	general map[string]float64
	stats   Stats
	closed  bool

	// Triggers and derived views (fired on the scheduler goroutine).
	triggers       map[model.ObjectID][]func(Entry) // guarded by mu
	globalTriggers []func(Entry)                    // guarded by mu
	derivedByDep   map[model.ObjectID][]*derivedDef // guarded by mu
	derivedByID    map[model.ObjectID]*derivedDef   // guarded by mu

	// Watch subscriptions.
	watchers     []*watcher                    // guarded by mu
	watchersByID map[model.ObjectID][]*watcher // guarded by mu

	// wal is the write-ahead log for general data; nil when disabled.
	// The pointer and fs (the filesystem it writes through; fault.OS
	// outside tests) are immutable after Open; the writer's fields are
	// only mutated under mu.
	wal *walWriter
	fs  fault.FS
	dur *metrics.Durability // WAL health and degraded mode, guarded by mu

	// Replication state (see replication.go). seq is the replication
	// sequence — the total order over worthy view installs and
	// committed write batches — advanced by emitLocked inside the
	// critical section that applies the change, whether or not a sink
	// is attached. epoch identifies this instance's sequence history
	// in the resume handshake; it is set at Open and replaced only by
	// AdoptReplicationEpoch when an election mints a new one.
	// arrival is the queue tie-break counter for incoming updates.
	// replBarrier discards queued replicated updates admitted before
	// the last ResetToSnapshot (see installEntry): state adopted from
	// a newly elected primary must not be overwritten by leftovers of
	// the deposed one's stream.
	// lag tracks replica freshness under the MA and UU criteria.
	seq         uint64              // guarded by mu
	epoch       uint64              // guarded by mu
	arrival     uint64              // guarded by mu
	replBarrier uint64              // guarded by mu
	sink        func(ReplEvent)     // guarded by mu
	lag         *metrics.ReplicaLag // guarded by mu

	// obs is the observability surface (histograms, trace ring); its
	// handle is immutable after Open, its scratch fields are written
	// under mu. maxStale tracks the worst install-time age per object.
	obs      *dbObs
	maxStale *metrics.MaxStaleness // guarded by mu

	// Scheduler-owned state. pending is written only by the scheduler
	// (in enqueue and settleLocked) but read under mu by Peek, so its
	// mutations take mu as well. queue is the class-partitioned update
	// queue the simulator's controller runs on too; order is its
	// service discipline (Config.LIFO).
	queue   *uqueue.ClassQueue
	order   model.QueueOrder
	pending []int // per-object queued-update count (UU criterion)
	ready   []*txnReq
	// onSettle, when set by an in-package test before the first step,
	// observes every update leaving the queue (see settleLocked).
	onSettle func(*model.Update, settleCause)

	// ckptMu serializes Checkpoint calls; it guards no fields.
	ckptMu sync.Mutex
}

type viewDef struct {
	name       string
	importance Importance
	derived    bool
}

type viewEntry struct {
	value     float64
	generated time.Time
	// fields holds named attributes for record views (partial
	// updates, §2); nil for plain scalar views.
	fields map[string]float64
	// history is a ring of past values, newest last, bounded by
	// Config.HistoryDepth.
	history []historical
}

// historical is one archived version of a view value.
type historical struct {
	value     float64
	generated time.Time
}

type txnReq struct {
	spec     TxnSpec
	res      chan Result
	enqueued time.Time
}

// Open creates a database and starts its scheduler.
func Open(cfg Config) (*DB, error) {
	db, err := open(cfg)
	if err != nil {
		return nil, err
	}
	go db.loop()
	return db, nil
}

// open builds a database whose scheduler goroutine is not running.
// In-package tests drive such a database one scheduling point at a
// time with step, against an injected Clock.
func open(cfg Config) (*DB, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	fsys := cfg.FS
	if fsys == nil {
		fsys = fault.OS
	}
	general := make(map[string]float64)
	var wal *walWriter
	if cfg.WALPath != "" {
		var st walState
		var err error
		general, st, err = recoverGeneral(fsys, cfg.WALPath)
		if err != nil {
			return nil, err
		}
		wal, err = openWAL(fsys, cfg.WALPath, st)
		if err != nil {
			return nil, err
		}
	}
	start := cfg.Clock()
	epoch := cfg.ReplicationEpoch
	if epoch == 0 {
		epoch = uint64(start.UnixNano())
	}
	if epoch == 0 {
		epoch = 1
	}
	db := &DB{
		cfg:        cfg,
		start:      start,
		startNanos: start.UnixNano(),
		epoch:      epoch,
		ingestCh:   make(chan *model.Update, cfg.IngestBuffer),
		txnCh:      make(chan *txnReq, 256),
		stopCh:     make(chan struct{}),
		done:       make(chan struct{}),
		names:      make(map[string]model.ObjectID),
		general:    general,
		wal:        wal,
		fs:         fsys,
		dur:        metrics.NewDurability(),
		lag:        metrics.NewReplicaLag(),
		maxStale:   metrics.NewMaxStaleness(),
	}
	db.obs = newDBObs(db, cfg.Metrics, cfg.TraceDepth)
	db.queue = uqueue.NewClassQueue(cfg.QueueCapacity, 1, cfg.Coalesce)
	if cfg.LIFO {
		db.order = model.LIFO
	}
	return db, nil
}

// Close stops the scheduler and releases resources. Transactions
// still queued when Close is called complete with ErrClosed. Close is
// idempotent.
func (db *DB) Close() error {
	if !db.markClosed() {
		<-db.done
		return nil
	}
	close(db.stopCh)
	<-db.done
	db.closeWatchers()
	if db.wal != nil {
		// The writer's fields are guarded by db.mu: a Checkpoint that
		// passed its rotate phase before markClosed may still be
		// writing its snapshot and will read db.wal.broken under mu
		// in checkpointHeal.
		db.mu.Lock()
		//striplint:ignore block-under-lock -- final fsync of Close: the database is shutting down, there are no waiters left to stall
		err := db.wal.close()
		db.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	return nil
}

// markClosed flips the closed flag under the write lock, reporting
// whether this call was the one that closed the database.
func (db *DB) markClosed() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return false
	}
	db.closed = true
	return true
}

// DefineView registers a view object refreshed by the update stream.
func (db *DB) DefineView(name string, importance Importance) error {
	if err := checkImportance(importance); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, ok := db.names[name]; ok {
		return ErrDuplicateObject
	}
	db.defineViewLocked(name, importance)
	return nil
}

// Views returns the defined view object names in definition order.
func (db *DB) Views() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, len(db.defs))
	for i, d := range db.defs {
		out[i] = d.name
	}
	return out
}

// Peek returns the current value of a view object without a
// transaction (a dirty read for monitoring).
func (db *DB) Peek(name string) (Entry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	id, ok := db.names[name]
	if !ok {
		return Entry{}, ErrUnknownObject
	}
	e := db.entries[id]
	return Entry{
		Object:    name,
		Value:     e.value,
		Fields:    copyFields(e.fields),
		Generated: e.generated,
		Stale:     db.staleLocked(id, db.cfg.Clock()),
	}, nil
}

// Stats returns a snapshot of the counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.stats
	s.QueueLen = db.queueLenLocked()
	s.ReplicationSeq = db.seq
	s.ReplicaLagSeconds, s.ReplicaLagUpdates = db.lag.Aggregate()
	s.WALErrors = db.dur.WALErrors()
	s.Degraded = db.dur.Degraded()
	s.DegradedHeals = db.dur.Heals()
	return s
}

// Degraded reports whether the database is in degraded durability
// mode: the write-ahead log has failed, commits fail fast with
// ErrDurability, and a successful Checkpoint is needed to heal.
func (db *DB) Degraded() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dur.Degraded()
}

// queueLenLocked reads the queue length. The queue itself is owned by
// the scheduler; the length is read opportunistically for monitoring
// and is exact only at quiescent points, so it is stored in stats at
// every scheduler pass instead of read from the structure here.
func (db *DB) queueLenLocked() int { return db.stats.QueueLen }

// now returns the configured clock's time.
func (db *DB) now() time.Time { return db.cfg.Clock() }

// secs converts a wall time to float seconds since Open, the time axis
// used by the internal queue structures.
func (db *DB) secs(t time.Time) float64 { return t.Sub(db.start).Seconds() }

// arrivalNanos recovers an update's arrival time in Unix nanoseconds
// from the float-seconds axis the queue structures already carry. The
// float64 mantissa keeps sub-nanosecond precision for months of
// uptime, so the recovered reading is exact for span purposes while
// the queued Update stays one allocator size class smaller than it
// would be carrying a separate nanosecond field.
func (db *DB) arrivalNanos(u *model.Update) int64 {
	return db.startNanos + int64(u.ArrivalTime*float64(time.Second))
}

// lookup resolves a view name to its object and importance class.
func (db *DB) lookup(name string) (model.ObjectID, Importance, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	id, ok := db.names[name]
	if !ok {
		return 0, 0, false
	}
	return id, db.defs[id].importance, true
}

// staleLocked evaluates the staleness criterion for one object. A
// derived view is stale when any of its dependencies is. Callers hold
// db.mu (read or write).
func (db *DB) staleLocked(id model.ObjectID, now time.Time) bool {
	if def, ok := db.derivedByID[id]; ok {
		for _, dep := range def.deps {
			if db.staleLocked(dep, now) {
				return true
			}
		}
		return false
	}
	if db.cfg.MaxAge > 0 {
		gen := db.entries[id].generated
		return now.Sub(gen) > db.cfg.MaxAge
	}
	return db.pending[id] > 0
}

// isStale evaluates staleness with the registry lock.
func (db *DB) isStale(id model.ObjectID, now time.Time) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.staleLocked(id, now)
}

// install takes an update that has just left the queue — and, for an
// OnDemand refresh, the queued updates it supersedes — and writes it
// into its view if it is worthy (newer than the installed generation),
// then fires triggers and derived-view recomputation. It is called on
// the scheduler goroutine. The install and trigger spans are measured
// from the clock reading taken here, as the update leaves the queue.
// The entry write happens in installEntry so the lock can be released
// by defer; triggers must fire outside db.mu (fireTriggers and
// notifyWatchers re-acquire it).
func (db *DB) install(u *model.Update, superseded []*model.Update) {
	o := db.obs
	popNanos := db.nowNanos()
	if u.ArrivalTime > 0 {
		o.stage[obs.StageQueueWait].Observe(popNanos - db.arrivalNanos(u))
	}
	if !db.installEntry(u, superseded, popNanos) {
		return
	}
	fired := db.fireTriggers(u.Object)
	if o.ring != nil {
		// The trigger span would cost a third clock reading on every
		// install, so it is measured only while tracing is active
		// (TraceDepth > 0, as in stripd) and only when a trigger,
		// watcher or derived recompute actually ran — pure clock-read
		// jitter on trigger-less installs would drown the signal.
		if fired {
			trig := db.nowNanos() - o.installEnd
			o.stage[obs.StageTrigger].Observe(trig)
			o.cur.Spans[obs.StageTrigger] = trig
		}
		// cur was assembled by installEntry under the lock.
		o.ring.Record(o.cur)
	}
}

// installEntry settles the departed updates and applies u in one
// critical section, reporting whether u was worthy (newer than the
// installed generation). Settling and writing under the same lock is
// what keeps the UU criterion truthful: an object stops being stale at
// the instant its value changes, never before. A worthy install is
// published to the replication sink — and takes its place in the
// replication total order — inside the same critical section.
func (db *DB) installEntry(u *model.Update, superseded []*model.Update, popNanos int64) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, old := range superseded {
		db.settleLocked(old, settleSkipped)
	}
	gen := db.genTime(u)
	e := &db.entries[u.Object]
	// A replicated update admitted before the last ResetToSnapshot
	// belongs to the deposed primary's stream: the reset adopted a
	// state its history never produced, so installing it — however
	// fresh its generation looks — would resurrect divergent writes.
	// Anything else is skipped only when unworthy.
	if (u.Replicated && u.Seq <= db.replBarrier) || !gen.After(e.generated) {
		db.settleLocked(u, settleSkipped)
		return false
	}
	if fields, ok := u.Aux.(partialFields); ok {
		// Partial update (§2): only the named attributes change;
		// the scalar value and other fields are retained.
		if e.fields == nil {
			//striplint:ignore alloc-in-hotpath -- lazily creates the entry's field map on its first partial update; later partials mutate it in place
			e.fields = make(map[string]float64, len(fields))
		}
		for k, v := range fields {
			e.fields[k] = v
		}
	} else {
		e.value = u.Payload
		if fields, ok := u.Aux.(completeFields); ok {
			// Complete update with attributes: replaces them all.
			e.fields = copyFields(fields)
		}
	}
	e.generated = gen
	db.recordHistoryLocked(u.Object)
	db.settleLocked(u, settleInstalled)
	if u.Replicated {
		db.lag.Installed(u.Object, u.GenTime)
	} else {
		// A local install newer than everything received leaves the
		// object fresh under MA even while replicated updates it
		// superseded are still being discarded.
		db.lag.Refreshed(u.Object, u.GenTime)
	}
	o := db.obs
	// The publish span reuses the clock reading the install span needs
	// anyway, so a sink costs one extra read and its absence costs
	// none.
	published := db.sink != nil
	var pubStart int64
	if published {
		pubStart = db.nowNanos()
	}
	db.emitInstallLocked(u, gen)
	end := db.nowNanos()
	o.installEnd = end
	o.stage[obs.StageInstall].Observe(end - popNanos)
	if published {
		o.stage[obs.StageReplPublish].Observe(end - pubStart)
	}
	age := end - gen.UnixNano()
	o.staleness.Observe(age)
	db.maxStale.Observe(u.Object, float64(age)/1e9)
	if u.Replicated {
		o.replicaLag.Observe(age)
	}
	if o.ring != nil {
		o.cur = obs.NewTrace()
		o.cur.Seq = u.Seq
		o.cur.Object = db.defs[u.Object].name
		if u.ArrivalTime > 0 {
			arr := db.arrivalNanos(u)
			o.cur.ArrivalNanos = arr
			o.cur.Spans[obs.StageQueueWait] = popNanos - arr
		}
		o.cur.Spans[obs.StageInstall] = end - popNanos
		if published {
			o.cur.Spans[obs.StageReplPublish] = end - pubStart
		}
	}
	return true
}

// partialFields and completeFields tag the Aux payload with the
// update's completeness.
type partialFields map[string]float64
type completeFields map[string]float64

// recordHistoryLocked archives the entry's new version in its history
// ring. Callers hold db.mu for writing.
func (db *DB) recordHistoryLocked(id model.ObjectID) {
	depth := db.cfg.HistoryDepth
	if depth <= 0 {
		return
	}
	e := &db.entries[id]
	e.history = append(e.history, historical{value: e.value, generated: e.generated})
	if len(e.history) > depth {
		e.history = e.history[len(e.history)-depth:]
	}
}

// genTime recovers the wall-clock generation time of an update. The
// exact nanosecond timestamp is preferred when present: the float
// seconds axis loses precision, and replicas must install the same
// generation times as their primary for convergence to be
// byte-identical.
func (db *DB) genTime(u *model.Update) time.Time {
	if u.WallGen != 0 {
		return time.Unix(0, u.WallGen)
	}
	return db.start.Add(time.Duration(u.GenTime * float64(time.Second)))
}
