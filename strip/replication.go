package strip

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/strip/internal/frame"
	"repro/strip/obs"
)

// Replication support: the primary side of strip/repl observes the
// database through a sink of ReplEvents, and the replica side feeds a
// database through ApplyReplicated / ApplyReplicatedBatch /
// InstallSnapshot.
//
// The database assigns one total order — the replication sequence —
// to everything that changes durable-or-derived-from-stream state:
// every worthy view install and every committed general-data batch
// takes the next sequence number at the moment it is applied, inside
// the same db.mu critical section that applies it. A snapshot taken
// under the same lock is therefore exactly consistent with a sequence
// number: state(S) plus frames S+1, S+2, ... replays to state(S+k)
// with no gaps and no duplicates. A replica of a strip primary is the
// paper's imported materialized view with the primary as the external
// world; its freshness is measured with the paper's own MA and UU
// criteria (see Stats.ReplicaLagSeconds / ReplicaLagUpdates).

// ReplEventKind discriminates replication events.
type ReplEventKind int

const (
	// ReplUpdate is a worthy view install (the update stream).
	ReplUpdate ReplEventKind = iota
	// ReplBatch is a committed general-data write batch (the WAL
	// stream).
	ReplBatch
)

// KeyValue is one key/value pair in deterministic (sorted) encodings.
// It is the record layer's pair, so the replication stream and the WAL
// encode the same type.
type KeyValue = frame.KeyValue

// ReplEvent is one element of the replication stream, in total order.
type ReplEvent struct {
	// Seq is the replication sequence number; consecutive events have
	// consecutive numbers.
	Seq uint64
	// Kind selects which of the field groups below is meaningful.
	Kind ReplEventKind

	// ReplUpdate fields: the installed view update.
	Object     string
	Importance Importance
	Value      float64
	Fields     []KeyValue // named attributes, sorted by key
	Partial    bool
	Generated  time.Time

	// ReplBatch fields: the committed writes, sorted by key.
	Writes []KeyValue
}

// Snapshot is a consistent cut of the database for replica bootstrap:
// state as of sequence Seq. Views are sorted by name (derived views
// are excluded — a replica recomputes them if it registers the same
// definitions) and General is sorted by key, so equal states encode
// to equal bytes.
type Snapshot struct {
	Seq     uint64
	Views   []SnapshotView
	General []KeyValue
}

// SnapshotView is one view object's state inside a Snapshot.
type SnapshotView struct {
	Name       string
	Importance Importance
	Value      float64
	Generated  time.Time
	Fields     []KeyValue // sorted by key
}

// SetReplicationSink registers fn to receive every replication event,
// in sequence order. The sink runs inside the database's write lock:
// it must be fast and must not call back into the database. Passing
// nil detaches the sink. Sequence numbering continues while no sink
// is attached: the sequence numbers the database's history itself, so
// state changed while detached can never be mistaken for state a
// resuming replica already holds — its cursor lands before the next
// ring base and it falls back to a snapshot.
func (db *DB) SetReplicationSink(fn func(ReplEvent)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sink = fn
}

// Sequence returns the current replication sequence number: the
// number of replicable state changes applied so far.
func (db *DB) Sequence() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// ReplicationEpoch identifies this database instance's sequence
// history (see Config.ReplicationEpoch). Two databases with different
// epochs share no sequence numbering, and a replica moving between
// them must re-bootstrap from a snapshot.
func (db *DB) ReplicationEpoch() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.epoch
}

// AdoptReplicationEpoch installs an epoch minted outside the database
// — by a strip/elect election deciding (primary, epoch) — replacing
// the instance epoch chosen at Open. A replica promoting itself to
// primary adopts the minted epoch before it starts serving: every
// node still holding a cursor from the old history (the demoted
// primary included) then fails the resume epoch check and
// re-bootstraps from a snapshot, which is what makes automatic
// failover divergence-free. Sequence numbering continues unchanged;
// the epoch renames the history, it does not restart it.
func (db *DB) AdoptReplicationEpoch(epoch uint64) error {
	if epoch == 0 {
		return fmt.Errorf("strip: replication epoch must be nonzero")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	db.epoch = epoch
	return nil
}

// emitLocked assigns the next sequence number and hands the event to
// the sink when one is attached. Callers hold db.mu for writing;
// emitting inside the critical section that applied the change is
// what makes the sequence a total order and snapshots consistent.
// The repl-publish span — the encode-and-retain cost every write pays
// while a Primary is attached — is measured by the callers
// (installLocked, applyWritesLocked).
func (db *DB) emitLocked(ev ReplEvent) {
	db.seq++
	if db.sink == nil {
		return
	}
	ev.Seq = db.seq
	db.sink(ev)
}

// emitInstallLocked publishes a worthy view install. Callers hold
// db.mu for writing. With no sink attached only the sequence
// advances; building the event would be wasted work on the
// non-replicated hot path.
func (db *DB) emitInstallLocked(u *model.Update, gen int64) {
	if db.sink == nil {
		db.seq++
		return
	}
	v := db.viewLocked(u.Object)
	ev := ReplEvent{
		Kind:       ReplUpdate,
		Object:     db.nameLocked(u.Object),
		Importance: Importance(v.class),
		Value:      u.Payload,
		Generated:  time.Unix(0, gen),
	}
	switch fields := u.Aux.(type) {
	case partialFields:
		ev.Partial = true
		ev.Fields = sortedKVs(fields)
	case completeFields:
		ev.Fields = sortedKVs(fields)
	}
	db.emitLocked(ev)
}

// emitBatchLocked publishes a committed write batch. Callers hold
// db.mu for writing.
func (db *DB) emitBatchLocked(writes map[string]float64) {
	if db.sink == nil {
		db.seq++
		return
	}
	db.emitLocked(ReplEvent{Kind: ReplBatch, Writes: sortedKVs(writes)})
}

// emitSnapshotViewLocked re-publishes one view state applied from a
// bootstrap snapshot. Callers hold db.mu for writing. Without this, a
// mid-tier replica that re-bootstraps would apply the snapshot's view
// state silently and a still-resumable downstream replica would never
// see it; publishing each applied view as an ordinary update keeps
// the outgoing stream complete.
func (db *DB) emitSnapshotViewLocked(v SnapshotView) {
	if db.sink == nil {
		db.seq++
		return
	}
	db.emitLocked(ReplEvent{
		Kind:       ReplUpdate,
		Object:     v.Name,
		Importance: v.Importance,
		Value:      v.Value,
		Fields:     v.Fields,
		Generated:  v.Generated,
	})
}

// applyWritesLocked logs, applies and publishes one committed batch
// of general-data writes. Callers hold db.mu for writing. Transaction
// commit and replicated batches share this path, so both appear in
// the WAL and in the replication stream. A batch the WAL cannot
// record fails fast with ErrDurability and is neither applied to
// memory nor published — a replica never sees a batch the primary
// could lose. A batch no frame can carry is refused before the WAL is
// touched, likewise unapplied and unpublished, and is no WAL failure:
// logged and applied, it would sit in every snapshot a cold replica
// needs, and none would encode. Without a WAL the same refusal is made
// by checkBatchFits, which measures the batch instead of encoding it.
func (db *DB) applyWritesLocked(writes map[string]float64) error {
	if db.wal == nil {
		if err := checkBatchFits(writes); err != nil {
			return fmt.Errorf("strip: commit refused: %w", err)
		}
	} else {
		if db.dur.Degraded() {
			return db.degradedErrLocked()
		}
		start := db.nowNanos()
		// The record carries the sequence number emitBatchLocked is
		// about to assign: it is the ring's frame for this batch.
		err := db.wal.appendBatch(db.seq+1, writes)
		db.obs.stage[obs.StageWALAppend].Observe(db.nowNanos() - start)
		switch {
		case errors.Is(err, frame.ErrTooLarge):
			return fmt.Errorf("strip: commit refused: %w", err)
		case err != nil:
			return db.walFailedLocked(err)
		}
	}
	for k, v := range writes {
		db.general[k] = v
	}
	if db.sink != nil {
		start := db.nowNanos()
		db.emitBatchLocked(writes)
		db.obs.stage[obs.StageReplPublish].Observe(db.nowNanos() - start)
	} else {
		db.emitBatchLocked(writes)
	}
	return nil
}

// checkBatchFits refuses a batch no frame can carry — a key over 65 535
// bytes, a record over frame.MaxRecord — with an error wrapping
// frame.ErrTooLarge, as encoding it would: one length check per key.
func checkBatchFits(writes map[string]float64) error {
	longest, keyBytes := 0, 0
	for k := range writes {
		longest = max(longest, len(k))
		keyBytes += len(k)
	}
	if longest > math.MaxUint16 {
		return fmt.Errorf("%w: key of %d bytes", frame.ErrTooLarge, longest)
	}
	if size := frame.BatchSize(len(writes), keyBytes); size > frame.MaxRecord {
		return fmt.Errorf("%w: batch record of %d bytes", frame.ErrTooLarge, size)
	}
	return nil
}

// ApplyReplicated submits one update received from a primary. It
// differs from ApplyUpdate in three ways: an unknown view object is
// defined on the fly with the carried importance (the replica imports
// the primary's schema as it streams; a view already defined here
// keeps its local importance), the update is tagged for lag
// accounting, and a full ingest buffer blocks instead of dropping —
// replication applies backpressure to the stream rather than losing
// updates. The update still flows through the normal scheduler queue,
// so the configured policy governs install order on the replica too.
// Like ApplyUpdate it takes no lock unless it must define the view:
// the sequence number is an atomic, and the replica-lag account is
// opened by the scheduler when it receives the update (enqueueLocked).
func (db *DB) ApplyReplicated(u Update, imp Importance) error {
	id, class, err := db.ensureView(u.Object, imp)
	if err != nil {
		return err
	}
	now := db.now()
	gen := u.Generated
	if gen.IsZero() {
		gen = now
	}
	arrival := now.UnixNano()
	mu := &model.Update{
		Object:      id,
		Class:       class,
		GenTime:     db.secs(gen),
		ArrivalTime: db.secs(now),
		Payload:     u.Value,
		WallGen:     gen.UnixNano(),
		Replicated:  true,
		Aux:         u.taggedFields(),
	}
	// ResetToSnapshot reads its barrier from the same atomic, so every
	// update is totally ordered against every reset.
	mu.Seq = db.arrival.Add(1)
	if !db.replicated.Load() {
		db.replicated.Store(true)
	}

	if !db.ingest.offerWait(mu, db.stopCh) {
		return ErrClosed
	}
	if db.closed.Load() {
		// As in ApplyUpdate: Close may have swept the buffer before this
		// store, and the update is counted dropped, not left behind.
		db.dropStranded()
	}
	// The replica-apply span: from the frame reaching this database to
	// the update entering the scheduler's ingest buffer, including any
	// backpressure wait on a full buffer.
	db.obs.stage[obs.StageReplicaApply].Observe(db.nowNanos() - arrival)
	return nil
}

// ensureView resolves a view name to its object and the class its
// updates queue under, defining it with the given importance when
// missing; only the definition takes db.mu. An existing definition wins
// over the carried importance: the local definition is what every read
// looks the class up by, so it is also what the update must be queued
// under. Derived views cannot be fed externally.
func (db *DB) ensureView(name string, imp Importance) (model.ObjectID, Importance, error) {
	if err := checkImportance(imp); err != nil {
		return 0, 0, err
	}
	if db.closed.Load() {
		return 0, 0, ErrClosed
	}
	ref, ok := db.lookup(name)
	if !ok {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed.Load() {
			return 0, 0, ErrClosed
		}
		// Another definer may have won the race to the lock.
		if ref, ok = db.lookup(name); !ok {
			return db.addDefLocked(name, imp, false), imp, nil
		}
	}
	if ref.derived {
		return 0, 0, fmt.Errorf("%w: %q", ErrDerivedUpdate, name)
	}
	return ref.id, ref.class, nil
}

// checkSnapshot validates a snapshot before any of it is applied.
func checkSnapshot(s Snapshot) error {
	for _, v := range s.Views {
		if err := checkImportance(v.Importance); err != nil {
			return err
		}
	}
	return nil
}

// snapshotTargetLocked resolves a snapshot view to its object, defining
// it with the snapshot's importance when missing. It reports false for
// a derived view, which a snapshot never sets. Callers hold db.mu for
// writing.
func (db *DB) snapshotTargetLocked(v SnapshotView) (model.ObjectID, bool) {
	ref, ok := db.lookup(v.Name)
	if !ok {
		return db.addDefLocked(v.Name, v.Importance, false), true
	}
	return ref.id, !ref.derived
}

// ApplyReplicatedBatch applies one committed write batch received
// from a primary: it is logged to the WAL, applied to the general
// store and re-published (so replicas can chain), exactly like a
// local transaction commit.
func (db *DB) ApplyReplicatedBatch(writes []KeyValue) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	defer db.publishStatsLocked()
	m := make(map[string]float64, len(writes))
	for _, kv := range writes {
		m[kv.Key] = kv.Value
	}
	db.stats.ReplBatchesApplied++
	return db.applyWritesLocked(m)
}

// ReplicaSnapshot returns a consistent cut of the database: every
// non-derived view's state, the general store, and the replication
// sequence they correspond to. It is the bootstrap payload served to
// cold replicas, deterministic for equal states.
func (db *DB) ReplicaSnapshot() Snapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Snapshot{Seq: db.seq, General: sortedKVs(db.general)}
	for i := range db.nviews {
		id := model.ObjectID(i)
		v := db.viewLocked(id)
		if v.derived {
			continue
		}
		s.Views = append(s.Views, SnapshotView{
			Name:       db.nameLocked(id),
			Importance: Importance(v.class),
			Value:      v.value,
			Generated:  genTime(v.gen),
			Fields:     sortedKVs(db.fields[id]),
		})
	}
	sort.Slice(s.Views, func(i, j int) bool { return s.Views[i].Name < s.Views[j].Name })
	return s
}

// InstallSnapshot loads a primary's snapshot into the database:
// missing views are defined, view state newer than the local state is
// installed, and the general pairs are applied as one logged batch.
// It does not touch views the snapshot omits, so a replica can also
// serve local data.
func (db *DB) InstallSnapshot(s Snapshot) error {
	if err := checkSnapshot(s); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	defer db.publishStatsLocked()
	for _, v := range s.Views {
		id, ok := db.snapshotTargetLocked(v)
		if !ok {
			continue
		}
		rec, gen := db.viewLocked(id), genOf(v.Generated)
		if gen <= rec.gen {
			continue
		}
		rec.value = v.Value
		rec.gen = gen
		db.setFieldsLocked(id, kvFields(v.Fields))
		db.recordHistoryLocked(id)
		db.emitSnapshotViewLocked(v)
	}
	db.stats.ReplSnapshotsInstalled++
	if len(s.General) == 0 {
		return nil
	}
	m := make(map[string]float64, len(s.General))
	for _, kv := range s.General {
		m[kv.Key] = kv.Value
	}
	return db.applyWritesLocked(m)
}

// ResetToSnapshot replaces the database's replicable state with the
// snapshot's, unconditionally: every snapshot view is installed even
// when the local generation is newer (the snapshot IS the new truth),
// non-derived views the snapshot omits are blanked, and the general
// store is replaced wholesale rather than merged. This is failover's
// re-point path — a node that followed (or was) a deposed primary
// adopts the elected primary's state exactly, discarding anything the
// old history wrote that the new one never saw; InstallSnapshot's
// merge semantics would let such divergent writes survive a leader
// change. Durability of the replacement is the caller's concern. The
// replica's reset path deliberately does NOT checkpoint synchronously
// (replication stays ahead of durability by design): a node that
// crashes between the reset and its next checkpoint recovers the old
// history's WAL and rejoins through the failover manager, which
// re-points it at the leader and resets again.
func (db *DB) ResetToSnapshot(s Snapshot) error {
	if err := checkSnapshot(s); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	inSnap := make(map[model.ObjectID]bool, len(s.Views))
	defer db.publishStatsLocked()
	for _, v := range s.Views {
		id, ok := db.snapshotTargetLocked(v)
		if !ok {
			continue
		}
		inSnap[id] = true
		rec := db.viewLocked(id)
		rec.value = v.Value
		rec.gen = genOf(v.Generated)
		db.setFieldsLocked(id, kvFields(v.Fields))
		// The view's history starts at the adopted version: the deposed
		// history's versions are writes the new one never made, and the
		// snapshot may be older than them. So do its replica-lag
		// receipts: measured against an adopted generation older than
		// them, they would report lag behind a stream the replica no
		// longer follows.
		delete(db.history, id)
		db.recordHistoryLocked(id)
		db.lag.Forget(id)
		db.emitSnapshotViewLocked(v)
	}
	// Blank views from the old history that the new one never defined;
	// they stay registered (queued updates may still name the IDs) but
	// hold no state, no history, no generation and no receipts, so any
	// later install wins. The deposed history's updates still in the
	// scheduler queue would otherwise resurrect as fresher-than-snapshot
	// state.
	for i := range db.nviews {
		id := model.ObjectID(i)
		v := db.viewLocked(id)
		if v.derived || inSnap[id] {
			continue
		}
		v.value = 0
		v.gen = noGen
		delete(db.fields, id)
		delete(db.history, id)
		db.lag.Forget(id)
	}
	// Everything already admitted to the scheduler queue predates the
	// reset; the barrier makes installLocked discard it on arrival.
	db.replBarrier = db.arrival.Load()
	db.stats.ReplSnapshotsInstalled++
	general := make(map[string]float64, len(s.General))
	for _, kv := range s.General {
		general[kv.Key] = kv.Value
	}
	db.general = general
	db.emitBatchLocked(general)
	return nil
}

// ReplicaLag returns the aggregate replication lag under the paper's
// two criteria: MA — the seconds by which the most out-of-date view
// trails the newest generation received from the primary — and UU —
// the count of received-but-uninstalled replicated updates.
func (db *DB) ReplicaLag() (maSeconds float64, uuUpdates int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lag.Aggregate(db.appliedGenLocked)
}

// appliedGenLocked is the generation MA replica lag measures a view's
// receipts against: its installed generation, or the database's start
// for a view that holds none — the oldest state a replica can be said
// to have. Callers hold db.mu.
func (db *DB) appliedGenLocked(id model.ObjectID) int64 {
	return max(db.viewLocked(id).gen, db.startNanos)
}

// ObjectLag returns one view object's replication lag (MA seconds and
// UU pending count).
func (db *DB) ObjectLag(name string) (maSeconds float64, uuUpdates int, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ref, ok := db.lookup(name)
	if !ok {
		return 0, 0, ErrUnknownObject
	}
	ma, uu := db.lag.Object(ref.id, db.appliedGenLocked(ref.id))
	return ma, uu, nil
}

// sortedKVs flattens a map into key-sorted pairs; nil and empty maps
// return nil.
func sortedKVs(m map[string]float64) []KeyValue {
	if len(m) == 0 {
		return nil
	}
	return appendSortedKVs(make([]KeyValue, 0, len(m)), m)
}

// appendSortedKVs appends the map's pairs to dst (which must be
// empty: callers pass a fresh or length-reset scratch slice) in
// key-sorted order. slices.SortFunc with a capture-free comparison
// keeps the sort itself allocation-free, unlike sort.Slice, which
// boxes the slice and its closure.
func appendSortedKVs(dst []KeyValue, m map[string]float64) []KeyValue {
	for k, v := range m {
		dst = append(dst, KeyValue{Key: k, Value: v})
	}
	slices.SortFunc(dst, func(a, b KeyValue) int {
		return strings.Compare(a.Key, b.Key)
	})
	return dst
}

// kvFields converts sorted pairs back into an attribute map.
func kvFields(kvs []KeyValue) map[string]float64 {
	if len(kvs) == 0 {
		return nil
	}
	m := make(map[string]float64, len(kvs))
	for _, kv := range kvs {
		m[kv.Key] = kv.Value
	}
	return m
}
