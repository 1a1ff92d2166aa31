package strip

import (
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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
	// Fields are grouped by writer, a cache line apart, so that one
	// group's stores do not evict another's readers
	// (TestDBFieldsGroupedByWriter). First the read-mostly ones, set at
	// Open or once; every offer and submission reads closed, defs and
	// seed. defs is the published definitions table, replaced when it
	// grows, and seed its name hash; closed is set once by Close (under
	// mu, so a define that holds mu sees it settled); replicated is set
	// once a replicated update has been offered, the one case in which
	// Stats takes mu (for the replica-lag scan).
	cfg   Config
	start time.Time
	// startNanos caches start.UnixNano(): the base the observability
	// layer adds monotonic elapsed readings and float-seconds arrival
	// stamps to (see nowNanos and arrivalNanos).
	startNanos int64
	ingest     *ingestRing // the arrival buffer, IngestBuffer slots
	txnCh      chan *txnReq
	stopCh     chan struct{}
	done       chan struct{}
	defs       atomic.Pointer[defTable]
	seed       maphash.Seed
	closed     atomic.Bool
	replicated atomic.Bool

	// Producers' counters: arrival is the queue tie-break shared by
	// ApplyUpdate and ApplyReplicated.
	_         [cacheLine]byte
	arrival   atomic.Uint64
	dropped   atomic.Uint64
	malformed atomic.Uint64

	// Submitters': each Exec's count is its transaction's ID.
	_         [cacheLine]byte
	submitted atomic.Uint64

	_ [cacheLine]byte
	// The scheduler's. mu guards the view catalog, general store and
	// stats. The catalog is the definitions table (defs.go): one record
	// per view, indexed by ObjectID, beside the view's name and class,
	// which readers that must not take mu (ApplyUpdate,
	// ApplyReplicated, Tx.Read) resolve through defs. pages are the
	// table's pages, reached here rather than through defs so that the
	// scheduler's record accesses stay off the cache line producers
	// write; nviews counts the definitions. fields and history are the
	// sparse side tables of the two optional features: fields holds the
	// attributes of record views only (§2 partial updates), history a
	// version ring per installed view and is nil unless
	// Config.HistoryDepth > 0.
	mu      sync.RWMutex
	pages   []*defPage
	nviews  int
	fields  map[model.ObjectID]map[string]float64
	history map[model.ObjectID]*historyRing
	general map[string]float64
	stats   Stats

	// pub is the copy of the counters that Stats reads (see statsCopy).
	pub statsCopy

	// Install hooks — triggers, Watch deliveries and derived-view
	// recomputes — per object and for every object, fired on the
	// scheduler goroutine (see captureLocked). Both lists are
	// append-only. derivedByID holds each derived view's definition for
	// staleness; watchers lists the subscriptions Close closes.
	hooks       map[model.ObjectID][]func(Entry) // guarded by mu
	globalHooks []func(Entry)                    // guarded by mu
	derivedByID map[model.ObjectID]*derivedDef   // guarded by mu
	watchers    []*watcher                       // guarded by mu

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
	// replBarrier discards queued replicated updates admitted before
	// the last ResetToSnapshot (see installLocked): state adopted from
	// a newly elected primary must not be overwritten by leftovers of
	// the deposed one's stream.
	// lag tracks replica freshness under the MA and UU criteria; it
	// holds an account only for views that replicated updates arrive for.
	seq         uint64              // guarded by mu
	epoch       uint64              // guarded by mu
	replBarrier uint64              // guarded by mu
	sink        func(ReplEvent)     // guarded by mu
	lag         *metrics.ReplicaLag // guarded by mu

	// obs is the observability surface (histograms, trace ring); its
	// handle is immutable after Open, its scratch fields are written
	// under mu. maxStale tracks the worst install-time age per object.
	obs      *dbObs
	maxStale *metrics.MaxStaleness // guarded by mu

	// Scheduler-owned state. queue is the class-partitioned update
	// queue the simulator's controller runs on too; order is its
	// service discipline (Config.LIFO). ready is the simulator's ready
	// queue too; due orders the same transactions by latest start.
	queue *uqueue.ClassQueue
	order model.QueueOrder
	ready uqueue.Heap[*txnReq]
	due   uqueue.Heap[*txnReq]
	// answered is set when the scheduler has finished a transaction since
	// its last yield (see loop).
	answered bool
	// firing holds the hooks a run's last install captured, for afterRun.
	firing firing
	// onSettle, when set by an in-package test before the first step,
	// observes every update leaving the queue (see settleLocked).
	onSettle func(*model.Update, settleCause)

	// ckptMu serializes Checkpoint calls; it guards no fields.
	ckptMu sync.Mutex
}

// view is one view object's catalog record: its installed state and
// the two definition bytes the install path reads, 24 bytes
// (TestViewFootprint pins the size). The name lives beside it in the
// definitions table; what only some views use — record fields, history
// — lives in the side tables next to the catalog (see DB.fields and
// DB.history).
type view struct {
	value float64
	// gen is the installed generation in Unix nanoseconds, noGen while
	// the view holds no state (see genOf).
	gen int64
	// pending counts the object's queued updates (UU criterion). It is
	// written only by the scheduler (in enqueueLocked and settleLocked)
	// but read under mu by Peek, so its mutations take mu as well.
	pending int32
	class   int8 // the Importance; checkImportance keeps it to Low or High
	derived bool
	// hooked is set once the object has a hook list of its own — a
	// trigger, a watcher, a derived view depending on it — and entryRead
	// once it has a hook that reads the installed entry: a trigger or a
	// watcher (none is ever removed). They spare every install the map
	// lookup, and an install whose hooks all ignore the entry the copy of
	// its fields (see installLocked and captureLocked).
	hooked, entryRead bool
}

// noGen is the generation of a view that holds no state: never
// installed, or blanked by ResetToSnapshot. It is below every real
// generation, those before 1970 included, so any install wins over it.
const noGen = math.MinInt64

// genOf converts an API generation time to the catalog's axis; the zero
// time is noGen.
func genOf(t time.Time) int64 {
	if t.IsZero() {
		return noGen
	}
	return t.UnixNano()
}

// genTime is the inverse of genOf.
func genTime(gen int64) time.Time {
	if gen == noGen {
		return time.Time{}
	}
	return time.Unix(0, gen)
}

// cacheLine is the span DB keeps between its groups of fields.
const cacheLine = 64

// txnReq is a submitted transaction, and the entry of db.ready (by
// Rank) and db.due (at index due).
type txnReq struct {
	uqueue.Rank
	due      int
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
	var history map[model.ObjectID]*historyRing
	if cfg.HistoryDepth > 0 {
		history = make(map[model.ObjectID]*historyRing)
	}
	db := &DB{
		cfg:        cfg,
		start:      start,
		startNanos: start.UnixNano(),
		epoch:      epoch,
		ingest:     newIngestRing(cfg.IngestBuffer),
		txnCh:      make(chan *txnReq, 256),
		stopCh:     make(chan struct{}),
		done:       make(chan struct{}),
		seed:       maphash.MakeSeed(),
		fields:     make(map[model.ObjectID]map[string]float64),
		history:    history,
		general:    general,
		wal:        wal,
		fs:         fsys,
		dur:        metrics.NewDurability(),
		lag:        new(metrics.ReplicaLag),
		maxStale:   metrics.NewMaxStaleness(),
	}
	db.defs.Store(newDefTable(minIndex))
	db.obs = newDBObs(db, cfg.Metrics, cfg.TraceDepth)
	db.queue = uqueue.NewClassQueue(cfg.QueueCapacity, 1, cfg.Coalesce)
	db.ready = uqueue.NewReadyQueue[*txnReq]()
	db.due = uqueue.NewHeap(startsBefore, func(req *txnReq) *int { return &req.due })
	if cfg.LIFO {
		db.order = model.LIFO
	}
	return db, nil
}

// Close stops the scheduler and releases resources. Transactions
// still queued when Close is called complete with ErrClosed. Close is
// idempotent.
func (db *DB) Close() error {
	watchers, first := db.markClosed()
	if !first {
		<-db.done
		return nil
	}
	close(db.stopCh)
	<-db.done
	db.dropStranded()
	for _, w := range watchers {
		w.close()
	}
	if db.wal != nil {
		// The writer's fields are guarded by db.mu: a Checkpoint that
		// passed its rotate phase before markClosed may still be
		// writing its snapshot and will read db.wal.broken under mu
		// in checkpointHeal.
		db.mu.Lock()
		// The final fsync of Close holds db.mu on purpose: the database is shutting down, there are no waiters left to stall.
		err := db.wal.close()
		db.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	return nil
}

// markClosed flips the closed flag under the write lock — a definition
// or subscription that holds the lock therefore completes before the
// flag turns or sees it turned — and hands back the subscriptions Close
// closes, which no Watch can add to afterwards, reporting whether this
// call was the one that closed the database.
func (db *DB) markClosed() (watchers []*watcher, first bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.watchers, db.closed.CompareAndSwap(false, true)
}

// DefineView registers a view object refreshed by the update stream.
func (db *DB) DefineView(name string, importance Importance) error {
	if err := checkImportance(importance); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if _, ok := db.lookup(name); ok {
		return ErrDuplicateObject
	}
	db.addDefLocked(name, importance, false)
	return nil
}

// Views returns the defined view object names in definition order.
func (db *DB) Views() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, db.nviews)
	for i := range out {
		out[i] = db.nameLocked(model.ObjectID(i))
	}
	return out
}

// Peek returns the current value of a view object without a
// transaction (a dirty read for monitoring).
func (db *DB) Peek(name string) (Entry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ref, ok := db.lookup(name)
	if !ok {
		return Entry{}, ErrUnknownObject
	}
	return db.entryLocked(ref.id, db.cfg.Clock().UnixNano()), nil
}

// entryLocked copies a view object's entry out, with its staleness at
// now (Unix nanoseconds). Callers hold db.mu (read or write).
func (db *DB) entryLocked(id model.ObjectID, now int64) Entry {
	v := db.viewLocked(id)
	return Entry{
		Object:    db.nameLocked(id),
		Value:     v.value,
		Fields:    copyFields(db.fields[id]),
		Generated: genTime(v.gen),
		Stale:     db.staleLocked(id, now),
	}
}

// Stats returns a snapshot of the counters. It takes no lock unless
// the database has received a replicated update: the counters come from
// the copy the last critical section that changed them published (see
// statsCopy), so one read balances the update ledger — received =
// installed + skipped + evicted + expired + queued — and a reader never
// waits out an install run. The producer-side counters are read after
// the copy, so a transaction the copy counts as finished is always
// counted as submitted. The replica-lag pair is an O(views) scan of
// state mu guards; it is taken under RLock, and only once replicated
// updates have arrived (a primary's lag is zero).
func (db *DB) Stats() Stats {
	s := db.pub.load()
	s.UpdatesDropped = db.dropped.Load()
	s.FeedMalformed = db.malformed.Load()
	s.TxnsSubmitted = db.submitted.Load()
	if db.replicated.Load() {
		db.mu.RLock()
		s.ReplicaLagSeconds, s.ReplicaLagUpdates = db.lag.Aggregate(db.appliedGenLocked)
		db.mu.RUnlock()
	}
	return s
}

// statsCopy is the seqlock-published copy of the Stats counters that
// db.mu guards: db.stats, the replication sequence and the durability
// state. Writers hold db.mu for writing, so there is one at a time; a
// write makes ver odd, stores the words that changed and makes ver even
// again. A reader retries while ver is odd or changed under it. Every
// word is an atomic, which is what keeps the race detector quiet and
// the protocol correct under Go's memory model (atomics are
// sequentially consistent); nothing allocates.
type statsCopy struct {
	ver   atomic.Uint64
	words [numStatsWords]atomic.Uint64
	// last is what words holds, kept beside it so a publish stores only
	// the words that changed — an install run changes three or four.
	last [numStatsWords]uint64 // guarded by mu
}

// numStatsWords is the number of Stats fields statsCopy carries: all
// but the three producer-side counters and the replica-lag pair.
const numStatsWords = 19

// statsWords flattens the fields statsCopy carries into words, in the
// order statsFromWords reads them back (TestStatsWordsRoundTrip checks
// that every field but the five Stats fills in itself survives).
func statsWords(s *Stats) [numStatsWords]uint64 {
	var degraded uint64
	if s.Degraded {
		degraded = 1
	}
	return [numStatsWords]uint64{
		s.UpdatesReceived,
		s.UpdatesInstalled,
		s.UpdatesSkipped,
		s.UpdatesExpired,
		s.UpdatesEvicted,
		uint64(s.QueueLen),
		s.TxnsCommitted,
		s.TxnsCommittedStale,
		s.TxnsAbortedDeadline,
		s.TxnsAbortedStale,
		s.TxnsFailed,
		s.TxnsFailedDurability,
		math.Float64bits(s.ValueCommitted),
		s.WALErrors,
		degraded,
		s.DegradedHeals,
		s.ReplicationSeq,
		s.ReplBatchesApplied,
		s.ReplSnapshotsInstalled,
	}
}

// statsFromWords is the inverse of statsWords.
func statsFromWords(w *[numStatsWords]uint64) Stats {
	return Stats{
		UpdatesReceived:        w[0],
		UpdatesInstalled:       w[1],
		UpdatesSkipped:         w[2],
		UpdatesExpired:         w[3],
		UpdatesEvicted:         w[4],
		QueueLen:               int(w[5]),
		TxnsCommitted:          w[6],
		TxnsCommittedStale:     w[7],
		TxnsAbortedDeadline:    w[8],
		TxnsAbortedStale:       w[9],
		TxnsFailed:             w[10],
		TxnsFailedDurability:   w[11],
		ValueCommitted:         math.Float64frombits(w[12]),
		WALErrors:              w[13],
		Degraded:               w[14] != 0,
		DegradedHeals:          w[15],
		ReplicationSeq:         w[16],
		ReplBatchesApplied:     w[17],
		ReplSnapshotsInstalled: w[18],
	}
}

// publishStatsLocked publishes the counters to the copy Stats reads.
// Every critical section that changes db.stats, db.seq, db.dur or the
// update queue's length calls it before it releases db.mu, after it has
// flushed the histograms it staged observations in — so a scrape never
// sees a histogram behind its counter. QueueLen is the master's field,
// which only the scheduler sets, in the same sections that settle
// queued updates; a publish from another goroutine carries the last
// value the scheduler set, which balances the counters it was set
// beside. Callers hold db.mu for writing.
func (db *DB) publishStatsLocked() {
	s := &db.stats
	s.ReplicationSeq = db.seq
	s.WALErrors = db.dur.WALErrors()
	s.Degraded = db.dur.Degraded()
	s.DegradedHeals = db.dur.Heals()
	w := statsWords(s)
	p := &db.pub
	if w == p.last {
		return
	}
	p.ver.Add(1)
	for i, x := range w {
		if x != p.last[i] {
			p.words[i].Store(x)
		}
	}
	p.last = w
	p.ver.Add(1)
}

// publishQueueLocked publishes the counters together with the update
// queue's length. Callers run on the scheduler goroutine, which owns the
// queue, and hold db.mu for writing.
func (db *DB) publishQueueLocked() {
	db.stats.QueueLen = db.queue.Len()
	db.publishStatsLocked()
}

// load reads a consistent copy, yielding while a publish is under way.
func (p *statsCopy) load() Stats {
	var w [numStatsWords]uint64
	for {
		if v := p.ver.Load(); v&1 == 0 {
			for i := range w {
				w[i] = p.words[i].Load()
			}
			if p.ver.Load() == v {
				return statsFromWords(&w)
			}
		}
		runtime.Gosched()
	}
}

// Degraded reports whether the database is in degraded durability
// mode: the write-ahead log has failed, commits fail fast with
// ErrDurability, and a successful Checkpoint is needed to heal. It
// reads the published Stats copy and takes no lock.
func (db *DB) Degraded() bool {
	return db.pub.load().Degraded
}

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

// staleLocked evaluates the staleness criterion for one object. A
// derived view is stale when any of its dependencies is; a view that
// holds no state is stale under MA. now is in Unix nanoseconds. Callers
// hold db.mu (read or write).
func (db *DB) staleLocked(id model.ObjectID, now int64) bool {
	v := db.viewLocked(id)
	if v.derived {
		for _, dep := range db.derivedByID[id].deps {
			if db.staleLocked(dep, now) {
				return true
			}
		}
		return false
	}
	if db.cfg.MaxAge > 0 {
		return v.gen == noGen || now-v.gen > int64(db.cfg.MaxAge)
	}
	return v.pending > 0
}

// install applies one update taken from the queue outside a run — the
// OnDemand refresh — together with the queued updates it supersedes,
// as a run of one (see installRun).
func (db *DB) install(u *model.Update, superseded []*model.Update) {
	now := db.nowNanos()
	db.mu.Lock()
	worthy, hooked := db.installLocked(u, superseded, now)
	db.endRunLocked(now, worthy)
	db.publishQueueLocked()
	db.mu.Unlock()
	db.afterRun(hooked)
}

// installLocked settles the departed updates and applies u in one
// critical section, reporting whether u was worthy (newer than the
// installed generation; 1 or 0, for the run's count) and, if so,
// whether it has hooks to fire — a trigger, a watcher or a derived
// view. It captures those hooks with u's entry in db.firing, so that
// afterRun fires them without taking db.mu again. Settling and writing
// under the same lock is what keeps the UU criterion truthful: an
// object stops being stale at the instant its value changes, never
// before. A worthy install is published to the replication sink — and
// takes its place in the replication total order — inside the same
// critical section. now is the run's clock reading: the moment the
// update left the queue. Callers hold db.mu for writing and run on the
// scheduler goroutine.
func (db *DB) installLocked(u *model.Update, superseded []*model.Update, now int64) (worthy int, hooked bool) {
	o := db.obs
	var arrived int64
	if u.ArrivalTime > 0 {
		arrived = db.arrivalNanos(u)
		o.stage[obs.StageQueueWait].ObserveStaged(now - arrived)
	}
	for _, old := range superseded {
		db.settleLocked(old, settleSkipped)
	}
	gen := db.updateGen(u)
	v := db.viewLocked(u.Object)
	// A replicated update admitted before the last ResetToSnapshot
	// belongs to the deposed primary's stream: the reset adopted a
	// state its history never produced, so installing it — however
	// fresh its generation looks — would resurrect divergent writes.
	// Anything else is skipped only when unworthy.
	if (u.Replicated && u.Seq <= db.replBarrier) || gen <= v.gen {
		db.settleLocked(u, settleSkipped)
		return 0, false
	}
	switch fields := u.Aux.(type) {
	case partialFields:
		// Partial update (§2): only the named attributes change;
		// the scalar value and other fields are retained.
		rec := db.fields[u.Object]
		if rec == nil {
			rec = make(map[string]float64, len(fields))
			db.fields[u.Object] = rec
		}
		for k, x := range fields {
			rec[k] = x
		}
	case completeFields:
		// Complete update with attributes: replaces them all.
		v.value = u.Payload
		db.setFieldsLocked(u.Object, copyFields(fields))
	default:
		v.value = u.Payload
	}
	v.gen = gen
	db.recordHistoryLocked(u.Object)
	db.settleLocked(u, settleInstalled)
	// Only an attached sink has a publish span worth two clock readings.
	published := int64(-1)
	if db.sink != nil {
		start := db.nowNanos()
		db.emitInstallLocked(u, gen)
		published = db.nowNanos() - start
		o.stage[obs.StageReplPublish].Observe(published)
	} else {
		db.emitInstallLocked(u, gen)
	}
	age := now - gen
	o.staleness.ObserveStaged(age)
	db.maxStale.Observe(u.Object, float64(age)/1e9)
	if u.Replicated {
		o.replicaLag.Observe(age)
	}
	if o.ring != nil {
		// endRunLocked fills in the install span, afterRun the trigger
		// span, and then records the run's traces.
		tr := obs.NewTrace()
		tr.Seq = u.Seq
		tr.Object = db.nameLocked(u.Object)
		if arrived != 0 {
			tr.ArrivalNanos = arrived
			tr.Spans[obs.StageQueueWait] = now - arrived
		}
		tr.Spans[obs.StageReplPublish] = published
		o.run = append(o.run, tr)
	}
	if !v.hooked && len(db.globalHooks) == 0 {
		return 1, false
	}
	db.firing = db.captureLocked(u.Object)
	return 1, true
}

// endRunLocked closes a run's critical section. It folds the queue-wait
// and staleness observations installLocked staged into their histograms
// — before db.mu is released, so a scrape never counts fewer
// observations than the Stats ledger counts installs — and takes the
// run's second and last clock reading: each of its worthy installs is
// charged an equal share of the time since the run's first reading,
// lock wait included — one install-stage observation per installed
// update, as when every install read the clock itself. Callers hold
// db.mu for writing.
func (db *DB) endRunLocked(now int64, worthy int) {
	o := db.obs
	o.stage[obs.StageQueueWait].Flush()
	if worthy == 0 {
		return
	}
	o.staleness.Flush()
	o.installEnd = db.nowNanos()
	span := (o.installEnd - now) / int64(worthy)
	o.stage[obs.StageInstall].ObserveN(span, worthy)
	for i := range o.run {
		o.run[i].Spans[obs.StageInstall] = span
	}
}

// afterRun does what a run leaves for outside db.mu: it fires the hooks
// of the run's last install, when that install had any (the run ended
// there), and hands the run's traces to the ring.
func (db *DB) afterRun(hooked bool) {
	if hooked {
		db.firing.fire()
		db.firing = firing{} // let go of the entry's fields copy
	}
	o := db.obs
	if len(o.run) == 0 {
		return
	}
	if hooked {
		// The trigger span costs a clock reading of its own, so it is
		// measured only while tracing is active (TraceDepth > 0, as in
		// stripd) and only when something actually fired — clock-read
		// jitter on hook-less installs would drown the signal.
		trig := db.nowNanos() - o.installEnd
		o.stage[obs.StageTrigger].Observe(trig)
		o.run[len(o.run)-1].Spans[obs.StageTrigger] = trig
	}
	for i := range o.run {
		o.ring.Record(o.run[i])
	}
	o.run = o.run[:0]
}

// partialFields and completeFields tag the Aux payload with the
// update's completeness.
type partialFields map[string]float64
type completeFields map[string]float64

// taggedFields copies the update's record fields for the Aux payload,
// tagged with its completeness; nil when it carries none.
func (u *Update) taggedFields() any {
	switch {
	case u.Fields == nil:
		return nil
	case u.Partial:
		return partialFields(copyFields(u.Fields))
	default:
		return completeFields(copyFields(u.Fields))
	}
}

// setFieldsLocked replaces a view's record fields; nil removes them.
// Callers hold db.mu for writing.
func (db *DB) setFieldsLocked(id model.ObjectID, fields map[string]float64) {
	if fields == nil {
		delete(db.fields, id)
		return
	}
	db.fields[id] = fields
}

// recordHistoryLocked archives the view's new version in its history
// ring. Callers hold db.mu for writing.
func (db *DB) recordHistoryLocked(id model.ObjectID) {
	if db.history == nil {
		return
	}
	r := db.history[id]
	if r == nil {
		r = &historyRing{}
		db.history[id] = r
	}
	v := db.viewLocked(id)
	r.add(historical{value: v.value, gen: v.gen}, db.cfg.HistoryDepth)
}

// updateGen recovers the generation of an update in Unix nanoseconds.
// The exact stamp ApplyUpdate and ApplyReplicated put on WallGen is
// preferred: the float seconds axis loses precision, and replicas must
// install the same generations as their primary for convergence to be
// byte-identical. WallGen zero means either no stamp (an update built
// on the float axis alone) or a generation at exactly the Unix epoch,
// whose float reading GenTime still carries.
func (db *DB) updateGen(u *model.Update) int64 {
	if u.WallGen != 0 || u.GenTime == db.secs(time.Unix(0, 0)) {
		return u.WallGen
	}
	return db.startNanos + int64(u.GenTime*float64(time.Second))
}
