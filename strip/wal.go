package strip

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/strip/fault"
	"repro/strip/obs"
)

// The write-ahead log makes general data durable: every committed
// transaction's Set operations are appended as one record, and Open
// replays the log (on top of the latest checkpoint snapshot) before
// accepting work. View data is deliberately not logged — it mirrors
// the external world and is re-derivable from the update stream, the
// same reasoning STRIP applied.
//
// The log is a sequence of generation-numbered segments. The active
// segment lives at Config.WALPath; sealed segments live beside it as
// <path>.gNNNNNNNN. Every segment opens with a header line naming its
// generation, and the checkpoint snapshot (<path>.snap) opens with a
// header naming the first generation it does NOT cover:
//
//	wal <gen>                    (segment header)
//	set <quoted-key> <value>     (one per write in the batch)
//	commit                       (seals the batch)
//
//	snap <gen>                   (snapshot header)
//	set <quoted-key> <value>     (one per key, sorted)
//
// Records are written in sorted key order, so equal states produce
// byte-identical files. Checkpoint never rewrites a file in place: it
// seals the active segment with a rename, starts a fresh one, and
// only then writes the snapshot. Commits that land while the snapshot
// is being written go to the new segment, which the snapshot does not
// cover — nothing is ever truncated away, so no committed write can
// be lost to a checkpoint and no stale bytes can resurrect after a
// crash. Recovery loads the snapshot, then replays the sealed
// segments it does not cover plus the active segment, applying whole
// batches only.
//
// A batch without its terminated commit line (a crash or torn write
// mid-append) is ignored at replay — but only when it is the final
// record of the log. Corruption followed by later records cannot be
// explained by a crash and surfaces as a *WALCorruptError. Headerless
// files written by earlier versions are read as generation 0.
//
// Tolerating a torn tail obliges recovery to remove it: the tail's
// bytes are still in the file, and appending new commits after them
// would either merge uncommitted writes into the next batch or turn
// the tolerated tail into mid-log damage that bricks the next Open.
// So recovery truncates the segment holding the torn or uncommitted
// tail back to its last terminated commit before the writer reopens
// it — the discarded bytes are exactly the ones replay ignores.

// WALCorruptError reports damage to the write-ahead log or snapshot
// that cannot be explained by a crash mid-append: a record that fails
// to parse, or a torn batch followed by later intact records.
// Recovery refuses to guess and returns it from Open.
type WALCorruptError struct {
	// File is the corrupt segment or snapshot path.
	File string
	// Line is the 1-based line number of the bad record.
	Line int
	// Offset is the byte offset of the bad record's first byte.
	Offset int64
	// Reason describes the damage.
	Reason string
}

func (e *WALCorruptError) Error() string {
	return fmt.Sprintf("strip: corrupt WAL %s:%d (byte %d): %s", e.File, e.Line, e.Offset, e.Reason)
}

// walWriter appends committed batches to the active log segment. It
// is guarded by db.mu. After any append, sync or rotation failure the
// writer is poisoned: broken holds the first cause, the buffer is
// discarded (a partial batch must never reach the file later), and
// every call fails fast until a checkpoint rotates to a fresh
// segment.
type walWriter struct {
	fs   fault.FS
	path string
	gen  uint64
	f    fault.File
	buf  *bufio.Writer
	// sealed means rotation renamed the active segment for gen away
	// but failed before creating its successor: the active path does
	// not exist, and the next rotation must skip straight to creating
	// the fresh segment instead of renaming again.
	sealed bool
	broken error
	// kvScratch and encScratch are reused across appendBatch calls so
	// a steady-state commit encodes its records with zero allocations.
	kvScratch  []KeyValue
	encScratch []byte
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
// generation-headed one when recovery found none usable.
func openWAL(fsys fault.FS, path string, st walState) (*walWriter, error) {
	if st.activeOK {
		f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("strip: opening WAL: %w", err)
		}
		return &walWriter{fs: fsys, path: path, gen: st.activeGen, f: f, buf: bufio.NewWriter(f)}, nil
	}
	f, err := newActiveSegment(fsys, path, st.nextGen)
	if err != nil {
		return nil, fmt.Errorf("strip: creating WAL: %w", err)
	}
	return &walWriter{fs: fsys, path: path, gen: st.nextGen, f: f, buf: bufio.NewWriter(f)}, nil
}

// newActiveSegment creates a fresh active segment with a synced
// generation header, so a crash immediately after leaves a parsable
// file.
func newActiveSegment(fsys fault.FS, path string, gen uint64) (fault.File, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(f, "wal %d\n", gen); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// poison marks the writer broken with its first failure and discards
// buffered bytes: after a torn append, whatever prefix reached the
// file must stay a final torn tail — flushing the rest later would
// turn it into mid-log garbage.
func (w *walWriter) poison(err error) error {
	if w.broken == nil {
		w.broken = err
		w.buf.Reset(io.Discard)
	}
	return err
}

// appendBatch logs one committed transaction's writes in sorted key
// order. The batch is flushed to the OS before it is considered
// applied; fsync is left to Sync/Close/Checkpoint (group durability,
// not per-commit).
func (w *walWriter) appendBatch(writes map[string]float64) error {
	if w.broken != nil {
		return w.broken
	}
	// Encode into reused scratch instead of fmt.Fprintf: byte-for-byte
	// the same records ("set <quoted-key> <floatG>\n"), without the
	// per-record format parsing, boxing and intermediate strings. The
	// torture tests compare WAL bytes, so the encoding must not drift.
	w.kvScratch = appendSortedKVs(w.kvScratch[:0], writes)
	for _, kv := range w.kvScratch {
		w.encScratch = append(w.encScratch[:0], "set "...)
		w.encScratch = strconv.AppendQuote(w.encScratch, kv.Key)
		w.encScratch = append(w.encScratch, ' ')
		w.encScratch = strconv.AppendFloat(w.encScratch, kv.Value, 'g', -1, 64)
		w.encScratch = append(w.encScratch, '\n')
		if _, err := w.buf.Write(w.encScratch); err != nil {
			return w.poison(err)
		}
	}
	if _, err := w.buf.WriteString("commit\n"); err != nil {
		return w.poison(err)
	}
	if err := w.buf.Flush(); err != nil {
		return w.poison(err)
	}
	return nil
}

func (w *walWriter) sync() error {
	if w.broken != nil {
		return w.broken
	}
	if err := w.buf.Flush(); err != nil {
		return w.poison(err)
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
// starting state. Replay is staged: batches are collected first and
// applied only when the whole log has parsed clean, so an error never
// leaves a partial state behind. A torn or uncommitted tail in the
// last segment with records is truncated away before returning, so
// the writer never appends after bytes replay discarded.
func recoverGeneral(fsys fault.FS, path string) (map[string]float64, walState, error) {
	general := make(map[string]float64)
	var st walState

	snapGen, err := loadSnapshot(fsys, snapPath(path), general)
	if err != nil {
		return nil, st, err
	}
	st.snapGen = snapGen

	segs, err := sealedSegments(fsys, path)
	if err != nil {
		return nil, st, err
	}

	rs := &replayState{}
	// The segment with a tolerated torn/uncommitted tail, and the
	// offset of its last terminated commit — everything past it is
	// discarded bytes that must not survive on disk.
	tailFile := ""
	tailEnd := int64(0)
	var maxSealed uint64
	haveSealed := false
	for _, sg := range segs {
		if sg.gen >= maxSealed {
			maxSealed = sg.gen
			haveSealed = true
		}
		if sg.gen < snapGen {
			// Covered by the snapshot; awaiting pruning.
			continue
		}
		data, err := readFileAll(fsys, sg.name)
		if err != nil {
			return nil, st, fmt.Errorf("strip: reading WAL segment: %w", err)
		}
		commitEnd, err := replaySegment(sg.name, data, sg.gen, rs)
		if err != nil {
			return nil, st, err
		}
		if rs.torn != nil && tailFile == "" {
			tailFile, tailEnd = sg.name, commitEnd
		}
	}

	// The active segment is always replayed: by construction its
	// generation is never below the snapshot's.
	data, err := readFileAll(fsys, path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Crash between sealing and creating the next segment.
	case err != nil:
		return nil, st, fmt.Errorf("strip: reading WAL: %w", err)
	default:
		gen, usable, herr := activeHeader(path, data)
		if herr != nil {
			return nil, st, herr
		}
		if usable {
			st.activeOK = true
			st.activeGen = gen
			commitEnd, err := replaySegment(path, data, gen, rs)
			if err != nil {
				return nil, st, err
			}
			// The active segment is reopened for appending, so even a
			// cleanly-parsing uncommitted tail (set lines without
			// their commit) must go: appending the next batch after
			// it would merge the discarded writes into that batch's
			// commit.
			if tailFile == "" && commitEnd < int64(len(data)) {
				tailFile, tailEnd = path, commitEnd
			}
		}
	}

	st.nextGen = snapGen
	if haveSealed && maxSealed+1 > st.nextGen {
		st.nextGen = maxSealed + 1
	}
	if st.nextGen == 0 {
		// Generation 0 is reserved for headerless legacy files.
		st.nextGen = 1
	}

	if tailFile != "" {
		if err := truncateTail(fsys, tailFile, tailEnd); err != nil {
			return nil, st, err
		}
	}

	for _, b := range rs.batches {
		for k, v := range b {
			general[k] = v
		}
	}
	return general, st, nil
}

// truncateTail cuts a recovered segment back to the end of its last
// terminated commit, removing a torn or uncommitted tail replay has
// already discarded. Failing to do so is unsafe — later appends would
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

// activeHeader classifies the active segment's first line: its
// generation, and whether the file is usable for appending. An empty
// file or a lone torn header (a crash during segment creation) is
// discarded and recreated; a headerless file with data is a legacy
// generation-0 log.
func activeHeader(path string, data []byte) (gen uint64, usable bool, err error) {
	lines, _, term := splitLines(data)
	if len(lines) == 0 {
		return 0, false, nil
	}
	if !strings.HasPrefix(lines[0], "wal ") {
		return 0, true, nil
	}
	if len(lines) == 1 && !term {
		return 0, false, nil
	}
	gen, perr := strconv.ParseUint(lines[0][len("wal "):], 10, 64)
	if perr != nil {
		return 0, false, &WALCorruptError{File: path, Line: 1, Offset: 0,
			Reason: fmt.Sprintf("bad segment header %q", lines[0])}
	}
	return gen, true, nil
}

// replayState accumulates committed batches across the segment chain.
// torn records the first unparsable or unterminated record; it is
// tolerated only while nothing follows it — a later record proves the
// damage is mid-log, which a crash cannot produce.
type replayState struct {
	batches []map[string]float64
	torn    *WALCorruptError
}

// replaySegment parses one segment's batches into rs. expectGen is
// the generation the segment's header must carry (headerless is
// tolerated for generation 0, the legacy format). commitEnd is the
// byte offset just past the segment's last terminated commit line (or
// past the header when no batch committed): the truncation point that
// removes a torn or uncommitted tail without touching committed data.
func replaySegment(name string, data []byte, expectGen uint64, rs *replayState) (commitEnd int64, err error) {
	lines, offs, term := splitLines(data)
	start := 0
	if len(lines) > 0 && strings.HasPrefix(lines[0], "wal ") {
		if len(lines) == 1 && !term {
			// Torn header: the segment died at birth, nothing in it.
			return 0, nil
		}
		gen, err := strconv.ParseUint(lines[0][len("wal "):], 10, 64)
		if err != nil || gen != expectGen {
			return 0, &WALCorruptError{File: name, Line: 1, Offset: 0,
				Reason: fmt.Sprintf("segment header %q does not name generation %d", lines[0], expectGen)}
		}
		start = 1
		commitEnd = int64(len(lines[0])) + 1
	} else if len(lines) > 0 && expectGen != 0 {
		return 0, &WALCorruptError{File: name, Line: 1, Offset: 0,
			Reason: fmt.Sprintf("missing generation header (want %d)", expectGen)}
	}

	pending := map[string]float64(nil)
	for i := start; i < len(lines); i++ {
		if rs.torn != nil {
			rs.torn.Reason += fmt.Sprintf("; later record at %s:%d proves mid-log damage", name, i+1)
			return 0, rs.torn
		}
		line := lines[i]
		unterminated := i == len(lines)-1 && !term
		if line == "commit" && !unterminated {
			rs.batches = append(rs.batches, pending)
			pending = nil
			commitEnd = offs[i] + int64(len(line)) + 1
			continue
		}
		key, value, err := parseSetLine(line)
		switch {
		case unterminated:
			// Even a record that happens to parse is untrustworthy
			// without its newline: the append never finished, so the
			// batch never committed.
			rs.torn = &WALCorruptError{File: name, Line: i + 1, Offset: offs[i],
				Reason: fmt.Sprintf("unterminated record %q", line)}
		case err != nil:
			rs.torn = &WALCorruptError{File: name, Line: i + 1, Offset: offs[i],
				Reason: err.Error()}
		default:
			if pending == nil {
				pending = make(map[string]float64)
			}
			pending[key] = value
		}
	}
	// Writes without a terminated commit are a torn batch: discarded.
	return commitEnd, nil
}

// loadSnapshot reads the checkpoint snapshot, returning the first
// generation it does not cover. Snapshots are written to a temp file,
// synced and renamed into place, so unlike the log they are never
// legitimately torn: any damage is an error.
func loadSnapshot(fsys fault.FS, path string, into map[string]float64) (uint64, error) {
	data, err := readFileAll(fsys, path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("strip: reading snapshot: %w", err)
	}
	lines, offs, term := splitLines(data)
	var gen uint64
	start := 0
	if len(lines) > 0 && strings.HasPrefix(lines[0], "snap ") {
		gen, err = strconv.ParseUint(lines[0][len("snap "):], 10, 64)
		if err != nil {
			return 0, &WALCorruptError{File: path, Line: 1, Offset: 0,
				Reason: fmt.Sprintf("bad snapshot header %q", lines[0])}
		}
		start = 1
	}
	for i := start; i < len(lines); i++ {
		if i == len(lines)-1 && !term {
			return 0, &WALCorruptError{File: path, Line: i + 1, Offset: offs[i],
				Reason: "unterminated snapshot record"}
		}
		key, value, err := parseSetLine(lines[i])
		if err != nil {
			return 0, &WALCorruptError{File: path, Line: i + 1, Offset: offs[i],
				Reason: err.Error()}
		}
		into[key] = value
	}
	return gen, nil
}

// readFileAll reads a whole file through the fault surface.
func readFileAll(fsys fault.FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// splitLines breaks data into newline-delimited lines with their byte
// offsets, reporting whether the final line had its newline. The
// distinction matters: a final line missing its terminator is a torn
// append, even when its bytes happen to parse.
func splitLines(data []byte) (lines []string, offs []int64, terminated bool) {
	terminated = true
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			lines = append(lines, string(data[start:i]))
			offs = append(offs, int64(start))
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, string(data[start:]))
		offs = append(offs, int64(start))
		terminated = false
	}
	return lines, offs, terminated
}

// parseSetLine decodes `set <quoted-key> <value>`.
func parseSetLine(line string) (string, float64, error) {
	rest, ok := strings.CutPrefix(line, "set ")
	if !ok {
		return "", 0, fmt.Errorf("bad record %q", line)
	}
	key, tail, err := unquoteToken(rest)
	if err != nil {
		return "", 0, err
	}
	value, err := strconv.ParseFloat(strings.TrimSpace(tail), 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value in %q: %v", line, err)
	}
	return key, value, nil
}

// unquoteToken reads one Go-quoted string from the front of s and
// returns it with the remainder.
func unquoteToken(s string) (string, string, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("missing quoted key in %q", s)
	}
	// Find the closing quote, honouring escapes.
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			key, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", err
			}
			return key, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quoted key in %q", s)
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
	w.buf = bufio.NewWriter(f)
	w.gen++
	w.sealed = false
	w.broken = nil
	return sealedGen, nil
}

// writeSnapshot writes the snapshot covering everything below gen:
// temp file, sorted records, sync, atomic rename.
func writeSnapshot(fsys fault.FS, walPath string, gen uint64, pairs []KeyValue) error {
	tmp := snapPath(walPath) + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("strip: creating snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "snap %d\n", gen)
	for _, kv := range pairs {
		fmt.Fprintf(w, "set %s %s\n",
			strconv.Quote(kv.Key), strconv.FormatFloat(kv.Value, 'g', -1, 64))
	}
	if err := w.Flush(); err != nil {
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
