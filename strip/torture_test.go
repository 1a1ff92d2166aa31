package strip

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/strip/fault"
)

// Crash-recovery torture testing: run a scripted workload against a
// recording in-memory filesystem, then simulate a crash at EVERY
// byte-level crash point of the recorded operation sequence, reopen
// the database from the reconstructed disk state, and assert the
// durability contract:
//
//   - the recovered general store equals the state after some prefix
//     of the committed batches (batch atomicity — never a torn batch,
//     never a mix of old and new values),
//   - every batch covered by a successful Sync, Checkpoint or Close
//     before the crash point is present (synced commit => durable),
//   - no batch that was not yet fully written is present (nothing
//     resurrects from truncated or torn log data),
//   - recovery itself never fails on a pure crash state.

// tortureBatches is the scripted workload length.
const tortureBatches = 30

// tortureScript runs the workload on a fresh MemFS-backed database
// and returns the op log, the per-batch op counts (ops recorded when
// batch i was fully written), the guarantee markers (opCount =>
// batches guaranteed durable), and the cumulative expected states
// (expected[c] = general store after c batches).
func tortureScript(t *testing.T) (fs *fault.MemFS, batchOps []int, markers [][2]int, expected []map[string]float64) {
	t.Helper()
	fs = fault.NewMemFS()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}

	expected = append(expected, map[string]float64{}) // zero batches
	state := map[string]float64{}
	for i := 0; i < tortureBatches; i++ {
		i := i
		res := db.Exec(TxnSpec{
			Deadline: time.Now().Add(5 * time.Second),
			Func: func(tx *Tx) error {
				// "k" makes every state distinguishable; the "b" keys
				// exercise multi-key batches and overwrites.
				tx.Set("k", float64(i))
				tx.Set(fmt.Sprintf("b%d", i%5), float64(i*10))
				return nil
			},
		})
		if !res.Committed() {
			t.Fatalf("batch %d failed: %+v", i, res)
		}
		batchOps = append(batchOps, fs.OpCount())
		state["k"] = float64(i)
		state[fmt.Sprintf("b%d", i%5)] = float64(i * 10)
		cp := make(map[string]float64, len(state))
		for k, v := range state {
			cp[k] = v
		}
		expected = append(expected, cp)

		if i%7 == 6 {
			if err := db.Sync(); err != nil {
				t.Fatalf("sync after batch %d: %v", i, err)
			}
			markers = append(markers, [2]int{fs.OpCount(), i + 1})
		}
		if i%10 == 9 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after batch %d: %v", i, err)
			}
			markers = append(markers, [2]int{fs.OpCount(), i + 1})
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	markers = append(markers, [2]int{fs.OpCount(), tortureBatches})
	return fs, batchOps, markers, expected
}

// recoveredState opens a database on the reconstructed filesystem and
// returns its general store.
func recoveredState(rfs *fault.MemFS) (map[string]float64, error) {
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: rfs})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	snap := db.ReplicaSnapshot()
	out := make(map[string]float64, len(snap.General))
	for _, kv := range snap.General {
		out[kv.Key] = kv.Value
	}
	return out, nil
}

// stateCount maps a recovered state back to its batch count via "k".
func stateCount(state map[string]float64) int {
	k, ok := state["k"]
	if !ok {
		return 0
	}
	return int(k) + 1
}

func equalStates(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TestTortureCrashEveryByte is the crash-point torture harness: one
// crash/reopen cycle per enumerated crash point of the scripted
// workload (well over the 200-cycle floor), zero tolerated contract
// violations.
func TestTortureCrashEveryByte(t *testing.T) {
	fs, batchOps, markers, expected := tortureScript(t)
	ops := fs.Ops()
	pts := fault.CrashPoints(ops)
	if len(pts) < 200 {
		t.Fatalf("only %d crash points enumerated; torture floor is 200", len(pts))
	}

	violations := 0
	for _, pt := range pts {
		// Durable floor: batches covered by a guarantee marker at or
		// before this point must survive.
		must := 0
		for _, m := range markers {
			if m[0] <= pt.OpIdx && m[1] > must {
				must = m[1]
			}
		}
		// Ceiling: batches fully written to the op log before this
		// point. Anything beyond was never completely persisted.
		max := 0
		for i, n := range batchOps {
			if n <= pt.OpIdx {
				max = i + 1
			}
		}

		state, err := recoveredState(fault.BuildFS(ops, pt))
		if err != nil {
			t.Errorf("crash point %+v: recovery failed: %v", pt, err)
			violations++
			continue
		}
		c := stateCount(state)
		if c < must || c > max {
			t.Errorf("crash point %+v: recovered %d batches, contract window [%d, %d]", pt, c, must, max)
			violations++
			continue
		}
		if !equalStates(state, expected[c]) {
			t.Errorf("crash point %+v: state is not S_%d: got %v want %v", pt, c, state, expected[c])
			violations++
		}
		if violations > 10 {
			t.Fatalf("stopping after %d violations", violations)
		}
	}
	t.Logf("%d crash/reopen cycles, %d violations", len(pts), violations)
}

// TestTortureSeededFaultDeterminism runs the same seeded fault
// schedule against the same workload twice and asserts both the
// injected-fault log and the surviving disk bytes are identical: a
// chaos run is exactly reproducible from its seed.
func TestTortureSeededFaultDeterminism(t *testing.T) {
	const seed = 99
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("schedule seed was %d; scenario repro of this class: go run ./cmd/stripsim -scenario scenarios/degraded-wal.yaml -seed %d", seed, seed)
		}
	})
	run := func() ([]string, map[string]string) {
		fs := fault.NewMemFS()
		sched := fault.NewSchedule(fault.ScheduleConfig{
			Seed:       seed,
			Match:      "wal",
			WriteErr:   0.08,
			ShortWrite: 0.08,
			SyncErr:    0.1,
		})
		fs.SetInjector(sched.Injector())
		db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			i := i
			db.Exec(TxnSpec{
				Deadline: time.Now().Add(5 * time.Second),
				Func:     func(tx *Tx) error { tx.Set("k", float64(i)); return nil },
			})
			if i%9 == 8 {
				db.Checkpoint() // may fail under injection; decisions still burn draws deterministically
			}
		}
		db.Close()
		files := map[string]string{}
		names, _ := fs.ReadDir(".")
		for _, name := range names {
			data, err := fs.ReadFile(name)
			if err != nil {
				t.Fatalf("reading %s: %v", name, err)
			}
			files[name] = string(data)
		}
		return sched.Log(), files
	}

	logA, filesA := run()
	logB, filesB := run()
	if len(logA) == 0 {
		t.Fatal("schedule injected no faults; raise the probabilities")
	}
	if strings.Join(logA, "\n") != strings.Join(logB, "\n") {
		t.Fatalf("same seed, different fault logs:\n%v\n--\n%v", logA, logB)
	}
	if len(filesA) != len(filesB) {
		t.Fatalf("same seed, different file sets: %d vs %d", len(filesA), len(filesB))
	}
	for name, a := range filesA {
		if b, ok := filesB[name]; !ok || a != b {
			t.Fatalf("same seed, file %s diverged", name)
		}
	}
}

// TestCheckpointKeepsConcurrentCommit is the regression for the
// lost-write window of the old truncate-style checkpoint: a commit
// landing while the snapshot file is being written must survive both
// a normal reopen and a crash at every later point. The commit is
// driven from inside the filesystem injector, which fires mid-
// snapshot-write on the checkpointer's goroutine with no locks held.
func TestCheckpointKeepsConcurrentCommit(t *testing.T) {
	fs := fault.NewMemFS()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	setKey(t, db, "before", 1)

	var once sync.Once
	fs.SetInjector(func(op fault.Op) (int, error) {
		if op.Kind == fault.OpWrite && strings.Contains(op.Name, ".snap.tmp") {
			once.Do(func() {
				// The snapshot is mid-write; this commit must land in
				// the fresh WAL segment the snapshot does not cover.
				setKey(t, db, "during", 42)
			})
		}
		return 0, nil
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.SetInjector(nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Normal reopen.
	state, err := recoveredState(fs)
	if err != nil {
		t.Fatal(err)
	}
	if state["before"] != 1 || state["during"] != 42 {
		t.Fatalf("mid-checkpoint commit lost: %v", state)
	}

	// Crash at every point from the checkpoint onward: "during" may be
	// absent before its batch persists, but must never half-apply, and
	// must be present from its write on. Find its write op first.
	ops := fs.Ops()
	durIdx := -1
	for i, op := range ops {
		if op.Kind == fault.OpWrite && op.Name == "wal" && bytes.Contains(op.Data, []byte("during")) {
			durIdx = i
		}
	}
	if durIdx < 0 {
		t.Fatal("no WAL write for the mid-checkpoint commit found")
	}
	for _, pt := range fault.CrashPoints(ops) {
		state, err := recoveredState(fault.BuildFS(ops, pt))
		if err != nil {
			t.Fatalf("crash point %+v: %v", pt, err)
		}
		if pt.OpIdx > durIdx && state["during"] != 42 {
			t.Fatalf("crash point %+v: fully-written mid-checkpoint commit lost: %v", pt, state)
		}
	}
}

// TestReplayRejectsMidLogCorruption is the regression for replayWAL's
// old behaviour of silently treating ANY parse error as a torn tail:
// corruption followed by later intact records must surface as a typed
// error naming the file and offset, and must not silently drop the
// tail.
func TestReplayRejectsMidLogCorruption(t *testing.T) {
	fs := fault.NewMemFS()
	intact := segmentFile(1, []KeyValue{kv("a", 1)})
	log := segmentFile(1, []KeyValue{kv("a", 1)}, []KeyValue{kv("garbage", 0)}, []KeyValue{kv("b", 2)})
	garbageEnd := len(segmentFile(1, []KeyValue{kv("a", 1)}, []KeyValue{kv("garbage", 0)}))
	if err := fs.WriteFile("wal", badCRC(log, garbageEnd)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err == nil {
		t.Fatal("mid-log corruption silently accepted")
	}
	var ce *WALCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *WALCorruptError: %v", err)
	}
	if ce.File != "wal" || ce.Offset != int64(len(intact)) {
		t.Fatalf("corruption located at %s byte %d, want wal byte %d (%v)", ce.File, ce.Offset, len(intact), err)
	}
}

// TestReplayToleratesTornTail: a record cut short by the end of the
// file is a crash artifact and recovery proceeds with the intact
// prefix.
func TestReplayToleratesTornTail(t *testing.T) {
	fs := fault.NewMemFS()
	log := segmentFile(1, []KeyValue{kv("a", 1)}, []KeyValue{kv("b", 2)})
	if err := fs.WriteFile("wal", log[:len(log)-12]); err != nil {
		t.Fatal(err)
	}
	state, err := recoveredState(fs)
	if err != nil {
		t.Fatal(err)
	}
	if state["a"] != 1 {
		t.Fatalf("intact prefix lost: %v", state)
	}
	if _, ok := state["b"]; ok {
		t.Fatalf("torn batch applied: %v", state)
	}
}

// TestReplayDropsUnterminatedCommit: a final record missing only the
// last byte of its checksum is a torn append — every write in it is on
// disk, but the batch never committed and must not resurrect.
func TestReplayDropsUnterminatedCommit(t *testing.T) {
	fs := fault.NewMemFS()
	log := segmentFile(1, []KeyValue{kv("a", 1)}, []KeyValue{kv("b", 2)})
	if err := fs.WriteFile("wal", log[:len(log)-1]); err != nil {
		t.Fatal(err)
	}
	state, err := recoveredState(fs)
	if err != nil {
		t.Fatal(err)
	}
	if state["a"] != 1 {
		t.Fatalf("intact prefix lost: %v", state)
	}
	if _, ok := state["b"]; ok {
		t.Fatalf("unterminated commit applied: %v", state)
	}
}

// TestDegradedModeFailFastAndHeal exercises the degraded-mode policy:
// on a persistent WAL failure, commits fail fast with ErrDurability
// and are not applied or replicated, view ingest and reads continue,
// and a successful Checkpoint heals.
func TestDegradedModeFailFastAndHeal(t *testing.T) {
	fs := fault.NewMemFS()
	var events []ReplEvent
	db, err := Open(Config{Policy: UpdatesFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetReplicationSink(func(ev ReplEvent) { events = append(events, ev) })
	if err := db.DefineView("px", High); err != nil {
		t.Fatal(err)
	}
	setKey(t, db, "good", 1)

	// Break the active WAL segment only (the snapshot must stay
	// writable so Checkpoint can heal).
	broken := true
	fs.SetInjector(func(op fault.Op) (int, error) {
		if broken && op.Kind == fault.OpWrite && op.Name == "wal" {
			return 0, fault.ErrInjected
		}
		return 0, nil
	})

	failedSet := func(key string) Result {
		return db.Exec(TxnSpec{
			Deadline: time.Now().Add(5 * time.Second),
			Func:     func(tx *Tx) error { tx.Set(key, 9); return nil },
		})
	}
	res := failedSet("lost")
	if res.State != Failed || !errors.Is(res.Err, ErrDurability) {
		t.Fatalf("commit under WAL failure: %+v", res)
	}
	// The failed batch is not applied, not replicated.
	if _, ok := getKey(t, db, "lost"); ok {
		t.Fatal("failed batch applied to memory")
	}
	for _, ev := range events {
		if ev.Kind == ReplBatch {
			for _, kv := range ev.Writes {
				if kv.Key == "lost" {
					t.Fatal("failed batch published to replication sink")
				}
			}
		}
	}
	// Fail-fast: the second commit errors without touching the WAL.
	errsBefore := db.Stats().WALErrors
	res = failedSet("lost2")
	if !errors.Is(res.Err, ErrDurability) {
		t.Fatalf("degraded commit did not fail fast: %+v", res)
	}
	if s := db.Stats(); s.WALErrors != errsBefore {
		t.Fatalf("fail-fast path hit the WAL: %d -> %d errors", errsBefore, s.WALErrors)
	}
	if err := db.Sync(); !errors.Is(err, ErrDurability) {
		t.Fatalf("Sync while degraded: %v", err)
	}
	s := db.Stats()
	if !s.Degraded || s.WALErrors == 0 || s.TxnsFailedDurability != 2 {
		t.Fatalf("degraded stats: %+v", s)
	}

	// View ingest and reads continue while degraded.
	if err := db.ApplyUpdate(Update{Object: "px", Value: 7.5, Generated: time.Now()}); err != nil {
		t.Fatal(err)
	}
	waitForValue(t, db, "px", 7.5)
	if v, ok := getKey(t, db, "good"); !ok || v != 1 {
		t.Fatalf("reads broken while degraded: %v %v", v, ok)
	}

	// Checkpoint heals: it rotates to a fresh segment and snapshots.
	broken = false
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("healing checkpoint: %v", err)
	}
	s = db.Stats()
	if s.Degraded || s.DegradedHeals != 1 {
		t.Fatalf("not healed: %+v", s)
	}
	setKey(t, db, "after", 2)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}

	// The healed log recovers cleanly: the failed batches are gone,
	// the pre-failure and post-heal commits are present.
	ops := fs.Ops()
	state, err := recoveredState(fault.BuildFS(ops, fault.CrashPoint{OpIdx: len(ops)}))
	if err != nil {
		t.Fatal(err)
	}
	if state["good"] != 1 || state["after"] != 2 {
		t.Fatalf("healed state lost commits: %v", state)
	}
	if _, ok := state["lost"]; ok {
		t.Fatalf("failed batch resurrected: %v", state)
	}
}

// waitForValue polls Peek until the view holds the value.
func waitForValue(t *testing.T, db *DB, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e, err := db.Peek(name); err == nil && e.Value == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("view %s never reached %v", name, want)
}

// TestTornTailSurvivesReopenCommitReopen is the regression for
// recovery tolerating a torn active-segment tail but leaving its
// bytes in place: the writer reopened with O_APPEND, new commits
// landed after the torn bytes, and the NEXT Open refused the log as
// mid-log damage — a single crash plus continued operation bricked
// the database. Recovery must truncate the torn tail so the
// crash/reopen/commit/reopen cycle converges.
func TestTornTailSurvivesReopenCommitReopen(t *testing.T) {
	fs := fault.NewMemFS()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	setKey(t, db, "a", 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last 3 bytes off the active segment (a crash mid-append
	// of the batch record), as the disk after a real crash would look.
	data, err := fs.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	rfs := fault.NewMemFS()
	if err := rfs.WriteFile("wal", data[:len(data)-3]); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: rfs})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if _, ok := getKey(t, db2, "a"); ok {
		t.Fatal("torn batch resurrected on first reopen")
	}
	setKey(t, db2, "b", 2)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// The second reopen is the one the old code failed with a
	// *WALCorruptError: the new commit sat after the torn bytes.
	state, err := recoveredState(rfs)
	if err != nil {
		t.Fatalf("reopen after post-crash commit: %v", err)
	}
	if state["b"] != 2 {
		t.Fatalf("post-crash commit lost: %v", state)
	}
	if _, ok := state["a"]; ok {
		t.Fatalf("torn batch resurrected: %v", state)
	}
}

// TestUncommittedTailDoesNotMergeWithNextBatch: a record whose whole
// payload reached the disk but not its checksum is discarded at replay
// — so its bytes must not survive for the next appended record to
// absorb, silently committing writes that never committed.
func TestUncommittedTailDoesNotMergeWithNextBatch(t *testing.T) {
	fs := fault.NewMemFS()
	log := segmentFile(1, []KeyValue{kv("a", 1)}, []KeyValue{kv("b", 2)})
	if err := fs.WriteFile("wal", log[:len(log)-4]); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := getKey(t, db, "b"); ok {
		t.Fatal("uncommitted tail applied")
	}
	setKey(t, db, "c", 3)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := recoveredState(fs)
	if err != nil {
		t.Fatal(err)
	}
	if state["a"] != 1 || state["c"] != 3 {
		t.Fatalf("committed batches lost: %v", state)
	}
	if _, ok := state["b"]; ok {
		t.Fatalf("uncommitted write merged into the next batch's commit: %v", state)
	}
}

// TestCheckpointHealsAfterSegmentCreateFailure is the regression for
// the poisoned rotation path: when the seal rename succeeded but
// creating the successor segment failed (transient ENOSPC), retrying
// Checkpoint used to re-run the rename — now ENOENT, forever — so
// degraded mode could never heal without reopening the database.
func TestCheckpointHealsAfterSegmentCreateFailure(t *testing.T) {
	fs := fault.NewMemFS()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setKey(t, db, "a", 1)

	// Fail the creation of the fresh active segment; the seal rename
	// before it succeeds.
	broken := true
	fs.SetInjector(func(op fault.Op) (int, error) {
		if broken && op.Kind == fault.OpCreate && op.Name == "wal" {
			return 0, fault.ErrInjected
		}
		return 0, nil
	})
	if err := db.Checkpoint(); !errors.Is(err, ErrDurability) {
		t.Fatalf("checkpoint with failing segment create: %v", err)
	}
	if !db.Degraded() {
		t.Fatal("not degraded after failed rotation")
	}

	// The transient fault clears; the documented contract is that a
	// successful Checkpoint heals.
	broken = false
	fs.SetInjector(nil)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("healing checkpoint after partial rotation: %v", err)
	}
	if db.Degraded() {
		t.Fatal("checkpoint did not heal")
	}
	setKey(t, db, "b", 2)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	state, err := recoveredState(fs)
	if err != nil {
		t.Fatal(err)
	}
	if state["a"] != 1 || state["b"] != 2 {
		t.Fatalf("commits lost across the healed rotation: %v", state)
	}
}

// TestSealedSegmentsWideGenerations: generation numbers wider than the
// %08d pad (1e8 and up) must still be listed and replayed — an
// exact-length name check used to silently drop them, losing their
// committed data.
func TestSealedSegmentsWideGenerations(t *testing.T) {
	fs := fault.NewMemFS()
	if err := fs.WriteFile(segmentName("wal", 100000000),
		segmentFile(100000000, []KeyValue{kv("a", 1)})); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("wal", segmentFile(100000001, []KeyValue{kv("b", 2)})); err != nil {
		t.Fatal(err)
	}
	segs, err := sealedSegments(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].gen != 100000000 {
		t.Fatalf("9-digit segment not listed: %+v", segs)
	}
	state, err := recoveredState(fs)
	if err != nil {
		t.Fatal(err)
	}
	if state["a"] != 1 || state["b"] != 2 {
		t.Fatalf("wide-generation segment dropped at replay: %v", state)
	}
}

// TestCloseCheckpointConcurrent drives Close against in-flight
// Checkpoints; under -race this is the regression for Close mutating
// the mu-guarded writer fields without the lock.
func TestCloseCheckpointConcurrent(t *testing.T) {
	for i := 0; i < 20; i++ {
		fs := fault.NewMemFS()
		db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		setKey(t, db, "a", 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if err := db.Checkpoint(); err != nil {
					return // ErrClosed once Close wins
				}
			}
		}()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
	}
}

// TestDegradedCloseReportsError: Close on a poisoned WAL surfaces
// ErrDurability instead of pretending the tail is durable.
func TestDegradedCloseReportsError(t *testing.T) {
	fs := fault.NewMemFS()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	setKey(t, db, "a", 1)
	fs.SetInjector(func(op fault.Op) (int, error) {
		if op.Kind == fault.OpSync && op.Name == "wal" {
			return 0, fault.ErrInjected
		}
		return 0, nil
	})
	if err := db.Close(); !errors.Is(err, ErrDurability) {
		t.Fatalf("Close with failing sync: %v", err)
	}
}
