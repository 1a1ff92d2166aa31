package strip

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/strip/fault"
	"repro/strip/internal/frame"
	"repro/strip/obs"
)

// The write-ahead log makes general data durable: every committed
// transaction's writes are appended as one record, and Open replays
// the log (on top of the latest checkpoint snapshot) before accepting
// work. View data is deliberately not logged — it mirrors the external
// world and is re-derivable from the update stream, the same reasoning
// STRIP applied.
//
// The log is a sequence of generation-numbered segments. The active
// segment lives at Config.WALPath, sealed segments beside it as
// <path>.gNNNNNNNN, the checkpoint snapshot at <path>.snap. Every file
// is a run of strip/internal/frame frames (len:u32 | payload | crc32),
// the replication stream's envelope, holding the stream's own records:
//
//	segment:  header(kind=4 gen:u64) batch*
//	snapshot: header(kind=5 gen:u64) batch*   gen: first one not covered
//	batch:    kind=2 seq:u64 n:u32 pair*      frame.AppendBatch
//
// A commit's record is byte for byte the frame the replication ring
// holds for it: both are frame.AppendBatch at the sequence number the
// commit takes. A snapshot's batches carry seq 0 and are split so no
// frame exceeds frame.MaxRecord. Pairs are in sorted key order, so
// equal states produce byte-identical files.
//
// Checkpoint never rewrites a file in place: it seals the active
// segment with a rename, starts a fresh one, and only then writes the
// snapshot. Commits that land while the snapshot is being written go
// to the new segment, which the snapshot does not cover — nothing is
// ever truncated away, so no committed write can be lost to a
// checkpoint and no stale bytes can resurrect after a crash. Recovery
// loads the snapshot, then replays the sealed segments it does not
// cover plus the active segment.
//
// A crash leaves a byte prefix of the write it interrupted, so a
// segment that ends inside a frame has a torn tail: that record never
// committed and replay drops it, as long as no later segment holds a
// record. Anything else is damage a crash cannot explain and a
// *WALCorruptError: a whole frame that fails its checksum, length or
// decode, a file that does not open with its header, a torn record
// with records after it. Files in the text format of earlier versions
// are refused that way too — their first bytes read as a length over
// the cap — and no converter exists.
//
// Tolerating a torn tail obliges recovery to remove it: the tail's
// bytes are still in the file, and appending new commits after them
// would turn the tolerated tail into mid-log damage that bricks the
// next Open. So recovery truncates the segment holding the torn tail
// back to its last whole frame before the writer reopens it.

// WALCorruptError reports damage to the write-ahead log or snapshot
// that cannot be explained by a crash mid-append: a whole frame that
// fails its checksum, length or decode, a file that does not open with
// its header, or a torn record followed by later records. Recovery
// refuses to guess and returns it from Open.
type WALCorruptError struct {
	// File is the corrupt segment or snapshot path.
	File string
	// Offset is the byte offset of the bad record's first byte.
	Offset int64
	// Reason describes the damage.
	Reason string
}

func (e *WALCorruptError) Error() string {
	return fmt.Sprintf("strip: corrupt WAL %s (byte %d): %s", e.File, e.Offset, e.Reason)
}

// walWriter appends committed batches to the active log segment. It
// is guarded by db.mu. After any append, sync or rotation failure the
// writer is poisoned: broken holds the first cause and every call
// fails fast until a checkpoint rotates to a fresh segment, so the
// prefix a failed write left stays the segment's final, torn record.
type walWriter struct {
	fs   fault.FS
	path string
	gen  uint64
	f    fault.File
	// sealed means rotation renamed the active segment for gen away
	// but failed before creating its successor: the active path does
	// not exist, and the next rotation must skip straight to creating
	// the fresh segment instead of renaming again.
	sealed bool
	broken error
	// kvs and rec are reused across appendBatch calls so a
	// steady-state commit frames its record with zero allocations.
	kvs []KeyValue
	rec []byte
}

// walState is what recovery learned about the on-disk log, consumed
// by openWAL.
type walState struct {
	snapGen   uint64 // first generation not covered by the snapshot
	activeGen uint64 // generation of the usable active segment
	activeOK  bool   // the active segment exists and can be appended to
	nextGen   uint64 // generation for a fresh active segment otherwise
}

// openWAL opens the active segment for appending, creating a fresh
// one when recovery found none usable.
func openWAL(fsys fault.FS, path string, st walState) (*walWriter, error) {
	if st.activeOK {
		f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("strip: opening WAL: %w", err)
		}
		return &walWriter{fs: fsys, path: path, gen: st.activeGen, f: f}, nil
	}
	f, err := newActiveSegment(fsys, path, st.nextGen)
	if err != nil {
		return nil, fmt.Errorf("strip: creating WAL: %w", err)
	}
	return &walWriter{fs: fsys, path: path, gen: st.nextGen, f: f}, nil
}

// newActiveSegment creates a fresh active segment with a synced header
// record, so a crash immediately after leaves a readable file.
func newActiveSegment(fsys fault.FS, path string, gen uint64) (fault.File, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	if err := frame.Write(f, header(frame.KindSegment, gen), frame.MaxRecord); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// header is the payload of the record a segment or snapshot opens with.
func header(kind byte, gen uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{kind}, gen)
}

// poison marks the writer broken with its first failure.
func (w *walWriter) poison(err error) error {
	if w.broken == nil {
		w.broken = err
	}
	return err
}

// appendBatch logs one committed batch as the record the replication
// stream carries for it at sequence seq: the writes in sorted key
// order, framed in the writer's scratch and handed to the OS in one
// Write. fsync is left to Sync/Close/Checkpoint (group durability, not
// per-commit). A batch no frame can carry — a key over 65 535 bytes, a
// record over frame.MaxRecord — fails with an error wrapping
// frame.ErrTooLarge before the file is touched, and the writer stays
// healthy.
func (w *walWriter) appendBatch(seq uint64, writes map[string]float64) error {
	if w.broken != nil {
		return w.broken
	}
	w.kvs = appendSortedKVs(w.kvs[:0], writes)
	rec, err := appendBatchFrame(w.rec[:0], seq, w.kvs)
	if err != nil {
		return err
	}
	w.rec = rec
	if _, err := w.f.Write(rec); err != nil {
		return w.poison(err)
	}
	return nil
}

// appendBatchFrame appends one batch record to dst as a whole frame.
func appendBatchFrame(dst []byte, seq uint64, kvs []KeyValue) ([]byte, error) {
	dst, start := frame.Begin(dst)
	dst, err := frame.AppendBatch(dst, seq, kvs)
	if err != nil {
		return nil, err
	}
	return frame.End(dst, start, frame.MaxRecord)
}

func (w *walWriter) sync() error {
	if w.broken != nil {
		return w.broken
	}
	if err := w.f.Sync(); err != nil {
		return w.poison(err)
	}
	return nil
}

func (w *walWriter) close() error {
	serr := w.sync()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// snapPath is the checkpoint snapshot file for a WAL path.
func snapPath(walPath string) string { return walPath + ".snap" }

// segmentName is the sealed name of generation gen.
func segmentName(walPath string, gen uint64) string {
	return fmt.Sprintf("%s.g%08d", walPath, gen)
}

// sealedSegment is one sealed segment found on disk.
type sealedSegment struct {
	name string
	gen  uint64
}

// sealedSegments lists the sealed segments beside a WAL path, in
// ascending generation order.
func sealedSegments(fsys fault.FS, walPath string) ([]sealedSegment, error) {
	dir := filepath.Dir(walPath)
	names, err := fsys.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("strip: listing WAL segments: %w", err)
	}
	prefix := filepath.Base(walPath) + ".g"
	var segs []sealedSegment
	for _, name := range names {
		// Any run of digits after the prefix is a generation: %08d
		// pads short generations to 8 digits but grows past 8 at
		// generation 1e8, and an exact-length check would silently
		// drop those segments (and their committed data) at replay.
		if !strings.HasPrefix(name, prefix) || len(name) == len(prefix) {
			continue
		}
		gen, err := strconv.ParseUint(name[len(prefix):], 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, sealedSegment{name: filepath.Join(dir, name), gen: gen})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].gen < segs[j].gen })
	return segs, nil
}

// recoverGeneral loads the general store from the checkpoint snapshot
// and the log segments it does not cover. Missing files mean an empty
// starting state; an error returns no state at all. A torn tail is
// truncated away before returning, so the writer never appends after
// bytes replay dropped.
func recoverGeneral(fsys fault.FS, path string) (map[string]float64, walState, error) {
	general := make(map[string]float64)
	var st walState

	snap, err := readLog(fsys, snapPath(path), frame.KindCheckpoint, general)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, st, err
	case !snap.headed || snap.torn:
		// Snapshots are written to a temp file, synced and renamed
		// into place, so unlike a segment one is never legitimately
		// torn.
		return nil, st, &WALCorruptError{File: snapPath(path), Offset: snap.end,
			Reason: "incomplete snapshot"}
	default:
		st.snapGen = snap.gen
	}

	segs, err := sealedSegments(fsys, path)
	if err != nil {
		return nil, st, err
	}

	// The first segment found torn and the end of its last whole
	// frame: the bytes past it must not survive on disk, and no record
	// may follow them.
	tornFile, tornEnd := "", int64(0)
	replayed := func(name string, lr logRead) error {
		if tornFile != "" && (lr.batches > 0 || lr.torn) {
			return &WALCorruptError{File: tornFile, Offset: tornEnd,
				Reason: fmt.Sprintf("torn record followed by later records in %s", name)}
		}
		if lr.torn && tornFile == "" {
			tornFile, tornEnd = name, lr.end
		}
		return nil
	}
	for _, sg := range segs {
		if sg.gen < st.snapGen {
			// Covered by the snapshot; awaiting pruning.
			continue
		}
		lr, err := readLog(fsys, sg.name, frame.KindSegment, general)
		if err != nil {
			return nil, st, err
		}
		if lr.headed && lr.gen != sg.gen {
			return nil, st, &WALCorruptError{File: sg.name,
				Reason: fmt.Sprintf("header names generation %d, want %d", lr.gen, sg.gen)}
		}
		if err := replayed(sg.name, lr); err != nil {
			return nil, st, err
		}
	}

	// The active segment is always replayed: by construction its
	// generation is never below the snapshot's.
	lr, err := readLog(fsys, path, frame.KindSegment, general)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Crash between sealing and creating the next segment.
	case err != nil:
		return nil, st, err
	case lr.headed:
		if err := replayed(path, lr); err != nil {
			return nil, st, err
		}
		st.activeOK, st.activeGen = true, lr.gen
	}
	// Otherwise the active segment is empty or torn inside its header
	// (a crash while creating it) and is created afresh.

	st.nextGen = max(st.snapGen, 1) // generations count from 1
	if n := len(segs); n > 0 {
		st.nextGen = max(st.nextGen, segs[n-1].gen+1)
	}

	if tornFile != "" {
		if err := truncateTail(fsys, tornFile, tornEnd); err != nil {
			return nil, st, err
		}
	}
	return general, st, nil
}

// logRead is what reading one segment or snapshot found.
type logRead struct {
	gen     uint64 // the header record's generation
	headed  bool   // the header record was read whole
	batches int    // batch records applied
	end     int64  // byte offset just past the last whole frame
	torn    bool   // the file ends inside a record after the header
}

// readLog reads one segment or snapshot through frame.ReadBuf: a
// header record of kind header, then batch records, each applied to
// into as it is read. A file that ends inside a frame is torn (or,
// inside its header, not headed). A whole frame that fails its
// checksum, length or decode, a missing header and a record of another
// kind are a *WALCorruptError. A missing file is an error satisfying
// errors.Is(err, os.ErrNotExist).
func readLog(fsys fault.FS, name string, header byte, into map[string]float64) (logRead, error) {
	var lr logRead
	f, err := fsys.Open(name)
	if err != nil {
		return lr, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var buf, payload []byte
	for {
		payload, buf, err = frame.ReadBuf(r, buf, frame.MaxRecord)
		switch {
		case err == io.EOF:
			return lr, nil
		case errors.Is(err, io.ErrUnexpectedEOF):
			lr.torn = lr.headed
			return lr, nil
		case frame.Corrupt(err):
			return lr, &WALCorruptError{File: name, Offset: lr.end, Reason: err.Error()}
		case err != nil:
			return lr, fmt.Errorf("strip: reading %s: %w", name, err)
		}
		d := frame.NewDecoder(payload)
		kind, n := d.U8(), d.U64()
		var kvs []KeyValue
		if kind == frame.KindBatch {
			kvs = d.Pairs32()
		}
		if err := d.Finish(); err != nil {
			return lr, &WALCorruptError{File: name, Offset: lr.end, Reason: err.Error()}
		}
		switch {
		case !lr.headed && kind == header:
			lr.gen, lr.headed = n, true
		case !lr.headed:
			return lr, &WALCorruptError{File: name, Offset: lr.end,
				Reason: fmt.Sprintf("record kind %d where the header belongs", kind)}
		case kind != frame.KindBatch:
			return lr, &WALCorruptError{File: name, Offset: lr.end,
				Reason: fmt.Sprintf("unexpected record kind %d", kind)}
		default:
			for _, kv := range kvs {
				into[kv.Key] = kv.Value
			}
			lr.batches++
		}
		lr.end += int64(len(payload)) + 8 // length prefix and CRC
	}
}

// truncateTail cuts a recovered segment back to the end of its last
// whole frame, removing the torn tail replay has already dropped. Failing to do so is unsafe — later appends would
// land after the dead bytes — so an error here fails the Open.
func truncateTail(fsys fault.FS, name string, size int64) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("strip: truncating torn WAL tail: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return fmt.Errorf("strip: truncating torn WAL tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("strip: syncing truncated WAL tail: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("strip: truncating torn WAL tail: %w", err)
	}
	return nil
}

// rotateWALLocked seals the active segment and starts generation+1.
// Callers hold db.mu for writing, so no commit can interleave: the
// sealed segment plus all earlier state is exactly the cut the
// caller's snapshot will cover. A poisoned writer is healed by the
// rotation — the fresh segment is clean — but the database stays
// degraded until the caller's snapshot lands, because a torn tail in
// the sealed segment is only safely ignorable while nothing commits
// after it.
func (db *DB) rotateWALLocked() (sealedGen uint64, err error) {
	w := db.wal
	sealedGen = w.gen
	if !w.sealed {
		if w.broken == nil {
			if err := w.sync(); err != nil {
				return 0, db.walFailedLocked(err)
			}
			if err := w.f.Close(); err != nil {
				w.broken = err
				return 0, db.walFailedLocked(err)
			}
		} else {
			// Poisoned segment: persist what the OS will still take and
			// seal it as-is. The snapshot about to be written supersedes
			// it; its torn tail is batches that already failed.
			//striplint:ignore err-drop -- segment already poisoned: best-effort persist before sealing; the snapshot about to land supersedes it
			w.f.Sync()
			w.f.Close()
		}
		if err := db.fs.Rename(w.path, segmentName(w.path, w.gen)); err != nil {
			w.broken = err // the old handle is closed; the writer is unusable
			return 0, db.walFailedLocked(err)
		}
		// From here the active path no longer exists: a failure below
		// must not make the next rotation rename (and fail) again —
		// it resumes at creating the successor segment.
		w.sealed = true
	}
	f, err := newActiveSegment(db.fs, w.path, w.gen+1)
	if err != nil {
		w.broken = err
		return 0, db.walFailedLocked(err)
	}
	w.f = f
	w.gen++
	w.sealed = false
	w.broken = nil
	return sealedGen, nil
}

// writeSnapshot writes the snapshot covering everything below gen:
// temp file, header record, the sorted pairs in batch records of at
// most frame.MaxRecord each — framed into one buffer, one Write — sync,
// atomic rename.
func writeSnapshot(fsys fault.FS, walPath string, gen uint64, pairs []KeyValue) error {
	tmp := snapPath(walPath) + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("strip: creating snapshot: %w", err)
	}
	buf, err := frame.Append(nil, header(frame.KindCheckpoint, gen), frame.MaxRecord)
	for len(pairs) > 0 && err == nil {
		n := frame.BatchFits(pairs)
		buf, err = appendBatchFrame(buf, 0, pairs[:n])
		pairs = pairs[n:]
	}
	if err == nil {
		_, err = f.Write(buf)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("strip: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("strip: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("strip: closing snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, snapPath(walPath)); err != nil {
		return fmt.Errorf("strip: installing snapshot: %w", err)
	}
	return nil
}

// pruneSegments removes sealed segments the snapshot covers. Failures
// are ignored: a leftover segment below the snapshot generation is
// skipped at recovery and retried at the next checkpoint.
func pruneSegments(fsys fault.FS, walPath string, snapGen uint64) {
	segs, err := sealedSegments(fsys, walPath)
	if err != nil {
		return
	}
	for _, sg := range segs {
		if sg.gen < snapGen {
			//striplint:ignore err-drop -- prune is best-effort by contract: a leftover segment is skipped at recovery and retried next checkpoint
			fsys.Remove(sg.name)
		}
	}
}

// Checkpoint bounds recovery time: it seals the active WAL segment,
// writes the full general store to the snapshot file and prunes the
// segments the snapshot covers. Only the rotation runs under the
// database lock; commits arriving while the snapshot is written land
// in the new segment, which the snapshot does not claim to cover — so
// the lost-write window of a truncate-style checkpoint cannot exist.
// A successful Checkpoint also heals degraded mode (see ErrDurability):
// the fresh segment plus the new snapshot re-establish the durability
// contract. It is a no-op without a configured WAL.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	//striplint:ignore block-under-lock -- ckptMu only serialises checkpoints; commits and reads proceed under db.mu while the rotation syncs
	pairs, snapGen, err := db.checkpointRotate()
	if err != nil {
		return err
	}
	//striplint:ignore block-under-lock -- snapshot I/O deliberately runs under ckptMu alone; db.mu was released after the rotation
	if err := writeSnapshot(db.fs, db.cfg.WALPath, snapGen, pairs); err != nil {
		// The WAL itself is intact: the old snapshot plus the sealed
		// segments still cover everything. Durability is not degraded
		// by a failed snapshot — but it is not healed either.
		return err
	}
	pruneSegments(db.fs, db.cfg.WALPath, snapGen)
	db.checkpointHeal()
	return nil
}

// checkpointRotate runs Checkpoint's locked phase: seal the active
// segment, start a fresh one, and copy the general store — the exact
// cut the snapshot will cover, since no commit can interleave.
func (db *DB) checkpointRotate() (pairs []KeyValue, snapGen uint64, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return nil, 0, ErrClosed
	}
	defer db.publishStatsLocked()
	//striplint:ignore block-under-lock -- sealing must be atomic with the commit path: group-commit accepts one segment fsync under db.mu per checkpoint
	sealedGen, err := db.rotateWALLocked()
	if err != nil {
		return nil, 0, err
	}
	return sortedKVs(db.general), sealedGen + 1, nil
}

// checkpointHeal ends degraded mode after a successful snapshot —
// unless the WAL broke again while the snapshot was being written.
func (db *DB) checkpointHeal() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal.broken == nil {
		db.dur.Heal()
		db.publishStatsLocked()
	}
}

// Sync forces every committed batch so far to stable storage. Commits
// are durable across a crash only after a successful Sync, Checkpoint
// or Close (group durability); a failed Sync poisons the WAL and
// degrades the database.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if db.wal == nil {
		return nil
	}
	defer db.publishStatsLocked()
	if db.dur.Degraded() {
		return db.degradedErrLocked()
	}
	start := db.nowNanos()
	//striplint:ignore block-under-lock -- Sync's contract is group durability: the fsync must exclude commits, so it holds db.mu by design
	err := db.wal.sync()
	db.obs.stage[obs.StageWALFsync].Observe(db.nowNanos() - start)
	if err != nil {
		return db.walFailedLocked(err)
	}
	return nil
}

// walFailedLocked records a WAL failure, degrades the database and
// wraps the cause in ErrDurability. Callers hold db.mu for writing.
func (db *DB) walFailedLocked(err error) error {
	db.dur.Failure()
	return fmt.Errorf("%w: %v", ErrDurability, err)
}

// degradedErrLocked is the fail-fast commit error while degraded.
// Callers hold db.mu.
func (db *DB) degradedErrLocked() error {
	if db.wal != nil && db.wal.broken != nil {
		return fmt.Errorf("%w: %v", ErrDurability, db.wal.broken)
	}
	return fmt.Errorf("%w: write-ahead log degraded, checkpoint pending", ErrDurability)
}
