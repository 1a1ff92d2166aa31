package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/strip"
	"repro/strip/fault"
	"repro/strip/internal/frame"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// openDB opens a database that closes with the test.
func openDB(t *testing.T, cfg strip.Config) *strip.DB {
	t.Helper()
	db, err := strip.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// servePrimary starts a Primary listening on a loopback port and
// returns it with its address.
func servePrimary(t *testing.T, db *strip.DB, cfg PrimaryConfig) (*Primary, string) {
	t.Helper()
	p := NewPrimary(db, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go p.Serve(l)
	t.Cleanup(func() { p.Close() })
	return p, l.Addr().String()
}

// dialTarget is a redirectable dialer that remembers the latest live
// connection so tests can kill it mid-stream.
type dialTarget struct {
	mu   sync.Mutex
	addr string
	conn net.Conn
}

func (d *dialTarget) setAddr(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addr = addr
}

func (d *dialTarget) dial() (net.Conn, error) {
	d.mu.Lock()
	addr := d.addr
	d.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.conn = conn
	d.mu.Unlock()
	return conn, nil
}

// killConn severs the current session, simulating a network failure.
func (d *dialTarget) killConn() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conn != nil {
		d.conn.Close()
	}
}

// frameRec is one OnFrame observation.
type frameRec struct {
	kind byte
	seq  uint64
}

// recorder collects the replica's applied-frame history.
type recorder struct {
	mu    sync.Mutex
	recs  []frameRec
	snaps int
}

func (r *recorder) onFrame(kind byte, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, frameRec{kind, seq})
	if kind == KindSnapshot {
		r.snaps++
	}
}

func (r *recorder) history() []frameRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]frameRec(nil), r.recs...)
}

func (r *recorder) snapCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snaps
}

// checkContiguous verifies the applied history has no gaps and no
// duplicates: every non-snapshot frame extends the cursor by exactly
// one, and snapshots rebase it.
func checkContiguous(t *testing.T, recs []frameRec, firstSeq uint64) {
	t.Helper()
	if len(recs) == 0 {
		t.Fatalf("replica applied no frames")
	}
	cursor := firstSeq - 1
	for i, rec := range recs {
		if rec.kind == KindSnapshot {
			cursor = rec.seq
			continue
		}
		if rec.seq != cursor+1 {
			t.Fatalf("frame %d: seq %d after %d — %s", i, rec.seq, cursor,
				map[bool]string{true: "duplicate", false: "gap"}[rec.seq <= cursor])
		}
		cursor = rec.seq
	}
}

// feedUpdates applies n updates round-robin over objects with strictly
// increasing generations, returning the next generation time.
func feedUpdates(t *testing.T, db *strip.DB, objects []string, n int, gen time.Time) time.Time {
	t.Helper()
	for i := 0; i < n; i++ {
		u := strip.Update{
			Object:    objects[i%len(objects)],
			Value:     float64(i) + 0.25,
			Generated: gen,
		}
		if i%3 == 0 {
			u.Fields = map[string]float64{"bid": float64(i), "ask": float64(i) + 0.5}
		}
		if err := db.ApplyUpdate(u); err != nil {
			t.Fatalf("ApplyUpdate %d: %v", i, err)
		}
		gen = gen.Add(time.Millisecond)
	}
	return gen
}

// execSet commits one general-data write through a transaction.
func execSet(t *testing.T, db *strip.DB, key string, v float64) {
	t.Helper()
	res := db.Exec(strip.TxnSpec{
		Value:    1,
		Deadline: time.Now().Add(5 * time.Second),
		Func: func(tx *strip.Tx) error {
			tx.Set(key, v)
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("Set(%s) transaction did not commit: %v", key, res.Err)
	}
}

// encodedState returns the database's snapshot encoding with the
// sequence zeroed, the byte-identical convergence fingerprint.
func encodedState(t *testing.T, db *strip.DB) []byte {
	t.Helper()
	s := db.ReplicaSnapshot()
	s.Seq = 0
	b, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	return b
}

// TestReplicaConvergence streams updates and committed batches to a
// replica, quiesces, and requires the replica's view and general
// stores to be byte-identical to the primary's.
func TestReplicaConvergence(t *testing.T) {
	primary := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if err := primary.DefineView("fx/a", strip.High); err != nil {
		t.Fatal(err)
	}
	if err := primary.DefineView("fx/b", strip.Low); err != nil {
		t.Fatal(err)
	}
	_, addr := servePrimary(t, primary, PrimaryConfig{})

	replica := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	rec := &recorder{}
	r, err := StartReplica(replica, ReplicaConfig{
		Addr: addr, BackoffBase: 2 * time.Millisecond, Seed: 1, OnFrame: rec.onFrame,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	// Let the cold bootstrap land before feeding so every event below
	// arrives as a stream frame, not inside the bootstrap snapshot.
	waitFor(t, 5*time.Second, "cold bootstrap", func() bool {
		return len(rec.history()) >= 1
	})

	const updates, batches = 60, 5
	gen := feedUpdates(t, primary, []string{"fx/a", "fx/b"}, updates/2, time.Now())
	for i := 0; i < batches; i++ {
		execSet(t, primary, fmt.Sprintf("book/%d", i), float64(i)*1.5)
	}
	feedUpdates(t, primary, []string{"fx/a", "fx/b"}, updates/2, gen)

	want := uint64(updates + batches)
	waitFor(t, 5*time.Second, "primary to publish every event", func() bool {
		return primary.Sequence() == want
	})
	waitFor(t, 5*time.Second, "replica to apply the whole stream", func() bool {
		if r.LastSeq() != want {
			return false
		}
		_, uu := replica.ReplicaLag()
		return uu == 0
	})

	// Quiesced: the stores must be byte-identical.
	if p, q := encodedState(t, primary), encodedState(t, replica); !bytes.Equal(p, q) {
		t.Fatalf("replica state diverged from primary:\nprimary %x\nreplica %x", p, q)
	}
	history := rec.history()
	checkContiguous(t, history, 1)
	// A cold replica always bootstraps from a snapshot (it has no
	// epoch, so its empty state cannot be assumed to match sequence
	// zero); after that one bootstrap it must stream.
	if history[0].kind != KindSnapshot {
		t.Errorf("first applied frame kind = %d, want bootstrap snapshot", history[0].kind)
	}
	if rec.snapCount() != 1 {
		t.Errorf("replica used %d snapshots; want exactly the cold bootstrap", rec.snapCount())
	}
	if stats := primary.Stats(); stats.ReplicationSeq != want {
		t.Errorf("primary ReplicationSeq = %d, want %d", stats.ReplicationSeq, want)
	}
	if stats := replica.Stats(); stats.ReplBatchesApplied != batches {
		t.Errorf("replica ReplBatchesApplied = %d, want %d", stats.ReplBatchesApplied, batches)
	}
	if ma, uu := replica.ReplicaLag(); ma != 0 || uu != 0 {
		t.Errorf("quiesced replica lag = (%v, %d), want (0, 0)", ma, uu)
	}
}

// TestReplicaResume kills the replica's connection mid-stream and then
// restarts the primary entirely; the replica must resume from its last
// sequence each time, ending with a contiguous history — no gaps, no
// duplicate installs.
func TestReplicaResume(t *testing.T) {
	primary := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if err := primary.DefineView("fx/a", strip.High); err != nil {
		t.Fatal(err)
	}
	p, addr := servePrimary(t, primary, PrimaryConfig{RingFrames: 1024})

	target := &dialTarget{}
	target.setAddr(addr)
	replica := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	rec := &recorder{}
	r, err := StartReplica(replica, ReplicaConfig{
		Dial: target.dial, BackoffBase: 2 * time.Millisecond, Seed: 3, OnFrame: rec.onFrame,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	const phase = 20
	gen := feedUpdates(t, primary, []string{"fx/a"}, phase, time.Now())
	waitFor(t, 5*time.Second, "phase 1 replication", func() bool { return r.LastSeq() == phase })

	// Network failure mid-stream: sever the session, keep feeding.
	target.killConn()
	gen = feedUpdates(t, primary, []string{"fx/a"}, phase, gen)
	waitFor(t, 5*time.Second, "resume after connection kill", func() bool { return r.LastSeq() == 2*phase })

	// Full primary restart: new Primary, new port, same database.
	p.Close()
	_, addr2 := servePrimary(t, primary, PrimaryConfig{RingFrames: 1024})
	target.setAddr(addr2)
	feedUpdates(t, primary, []string{"fx/a"}, phase, gen)
	waitFor(t, 5*time.Second, "resume after primary restart", func() bool { return r.LastSeq() == 3*phase })

	waitFor(t, 5*time.Second, "replica installs to drain", func() bool {
		_, uu := replica.ReplicaLag()
		return uu == 0
	})
	history := rec.history()
	checkContiguous(t, history, 1)
	if rec.snapCount() != 1 {
		t.Errorf("replica used %d snapshots; want only the cold bootstrap — both resumes should have healed the stream", rec.snapCount())
	}
	if history[0].kind != KindSnapshot {
		t.Fatalf("first applied frame kind = %d, want the cold bootstrap snapshot", history[0].kind)
	}
	// Exactly one frame per sequence after the bootstrap: no
	// duplicate installs across either resume.
	if want := 3*phase - int(history[0].seq) + 1; len(history) != want {
		t.Errorf("replica applied %d frames, want exactly %d (no duplicates)", len(history), want)
	}
	if p, q := encodedState(t, primary), encodedState(t, replica); !bytes.Equal(p, q) {
		t.Fatalf("replica state diverged from primary after resumes")
	}
}

// TestSnapshotBootstrap connects a cold replica after the ring has
// lapsed: it must bootstrap from a snapshot, then stream, and still
// converge byte-identically.
func TestSnapshotBootstrap(t *testing.T) {
	primary := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if err := primary.DefineView("fx/a", strip.High); err != nil {
		t.Fatal(err)
	}
	_, addr := servePrimary(t, primary, PrimaryConfig{RingFrames: 4})

	execSet(t, primary, "book/base", 10)
	gen := feedUpdates(t, primary, []string{"fx/a"}, 20, time.Now())
	const preSeq = 21 // one batch + twenty updates, all before the replica exists
	waitFor(t, 5*time.Second, "primary to publish history", func() bool {
		return primary.Sequence() == preSeq
	})

	replica := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	rec := &recorder{}
	r, err := StartReplica(replica, ReplicaConfig{
		Addr: addr, BackoffBase: 2 * time.Millisecond, Seed: 9, OnFrame: rec.onFrame,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	waitFor(t, 5*time.Second, "snapshot bootstrap", func() bool { return r.LastSeq() >= preSeq })
	// Feed fewer frames than the ring holds so none can fall off
	// before the reader forwards them: the tail must stream, not
	// trigger a second bootstrap.
	feedUpdates(t, primary, []string{"fx/a"}, 3, gen)
	waitFor(t, 5*time.Second, "post-snapshot streaming", func() bool {
		if r.LastSeq() != preSeq+3 {
			return false
		}
		_, uu := replica.ReplicaLag()
		return uu == 0
	})

	history := rec.history()
	if history[0].kind != KindSnapshot {
		t.Fatalf("first applied frame kind = %d, want snapshot", history[0].kind)
	}
	checkContiguous(t, history, 1)
	if rec.snapCount() != 1 {
		t.Errorf("replica installed %d snapshots, want exactly 1", rec.snapCount())
	}
	if stats := replica.Stats(); stats.ReplSnapshotsInstalled != 1 {
		t.Errorf("ReplSnapshotsInstalled = %d, want 1", stats.ReplSnapshotsInstalled)
	}
	if p, q := encodedState(t, primary), encodedState(t, replica); !bytes.Equal(p, q) {
		t.Fatalf("replica state diverged from primary after snapshot bootstrap")
	}
}

// TestReplicaChaining replicates through a middle tier: primary →
// relay → leaf, exercising re-publication of applied frames.
func TestReplicaChaining(t *testing.T) {
	primary := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if err := primary.DefineView("fx/a", strip.High); err != nil {
		t.Fatal(err)
	}
	_, addr := servePrimary(t, primary, PrimaryConfig{})

	relay := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	_, relayAddr := servePrimary(t, relay, PrimaryConfig{})
	r1, err := StartReplica(relay, ReplicaConfig{Addr: addr, BackoffBase: 2 * time.Millisecond, Seed: 4})
	if err != nil {
		t.Fatalf("StartReplica(relay): %v", err)
	}
	t.Cleanup(func() { r1.Close() })

	leaf := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	r2, err := StartReplica(leaf, ReplicaConfig{Addr: relayAddr, BackoffBase: 2 * time.Millisecond, Seed: 5})
	if err != nil {
		t.Fatalf("StartReplica(leaf): %v", err)
	}
	t.Cleanup(func() { r2.Close() })

	feedUpdates(t, primary, []string{"fx/a"}, 10, time.Now())
	execSet(t, primary, "book/x", 3)
	waitFor(t, 5*time.Second, "primary to publish every event", func() bool {
		return primary.Sequence() == 11
	})
	// The relay's own sequence space differs from the primary's (its
	// bootstrap snapshot re-publishes applied views as fresh events),
	// so convergence is judged on state, not on sequence numbers.
	pState := encodedState(t, primary)
	waitFor(t, 5*time.Second, "leaf convergence through the relay", func() bool {
		_, uuRelay := relay.ReplicaLag()
		_, uuLeaf := leaf.ReplicaLag()
		return r1.LastSeq() == 11 && uuRelay == 0 && uuLeaf == 0 &&
			bytes.Equal(pState, encodedState(t, relay)) &&
			bytes.Equal(pState, encodedState(t, leaf))
	})
}

// TestColdReplicaSeesPreAttachState covers the pre-attach hole: state
// the primary database accumulated before NewPrimary attached its sink
// — including a view that was defined but never updated — must still
// reach a cold replica.
func TestColdReplicaSeesPreAttachState(t *testing.T) {
	primary := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if err := primary.DefineView("fx/a", strip.High); err != nil {
		t.Fatal(err)
	}
	if err := primary.DefineView("fx/ghost", strip.Low); err != nil {
		t.Fatal(err)
	}
	feedUpdates(t, primary, []string{"fx/a"}, 5, time.Now())
	execSet(t, primary, "book/pre", 42)
	waitFor(t, 5*time.Second, "pre-attach state to apply", func() bool {
		return primary.Sequence() == 6
	})

	// Only now does a Primary attach: nothing above ever reached a
	// replication sink.
	_, addr := servePrimary(t, primary, PrimaryConfig{})
	replica := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	rec := &recorder{}
	r, err := StartReplica(replica, ReplicaConfig{
		Addr: addr, BackoffBase: 2 * time.Millisecond, Seed: 11, OnFrame: rec.onFrame,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	waitFor(t, 5*time.Second, "cold replica to converge on pre-attach state", func() bool {
		_, uu := replica.ReplicaLag()
		return uu == 0 && bytes.Equal(encodedState(t, primary), encodedState(t, replica))
	})
	if rec.snapCount() != 1 {
		t.Errorf("replica used %d snapshots, want the one cold bootstrap", rec.snapCount())
	}
	if e, err := replica.Peek("fx/ghost"); err != nil {
		t.Errorf("never-updated view did not transfer: %v", err)
	} else if e.Value != 0 {
		t.Errorf("ghost view value = %v, want 0", e.Value)
	}
}

// TestWALRecoveredStateBootstrapsReplica covers the recovery variant
// of the pre-attach hole: general data replayed from the WAL on Open
// exists before any sink attaches, yet must reach a cold replica.
func TestWALRecoveredStateBootstrapsReplica(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "general.wal")
	db1, err := strip.Open(strip.Config{Policy: strip.UpdatesFirst, WALPath: wal})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	execSet(t, db1, "book/x", 1)
	execSet(t, db1, "book/y", 2)
	if err := db1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	primary := openDB(t, strip.Config{Policy: strip.UpdatesFirst, WALPath: wal})
	_, addr := servePrimary(t, primary, PrimaryConfig{})
	replica := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	r, err := StartReplica(replica, ReplicaConfig{
		Addr: addr, BackoffBase: 2 * time.Millisecond, Seed: 12,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	waitFor(t, 5*time.Second, "WAL-recovered state to reach the replica", func() bool {
		_, uu := replica.ReplicaLag()
		return uu == 0 && bytes.Equal(encodedState(t, primary), encodedState(t, replica))
	})
}

// TestWALBatchFrameMatchesRing pins the one log format: a commit on a
// WAL-backed primary puts in its WAL segment exactly the frame the
// primary's ring holds for the commit's sequence number. A view
// install goes first, so the batch's sequence is not the segment's
// first record number by accident.
func TestWALBatchFrameMatchesRing(t *testing.T) {
	fs := fault.NewMemFS()
	db := openDB(t, strip.Config{Policy: strip.UpdatesFirst, WALPath: "wal", FS: fs})
	if err := db.DefineView("fx/a", strip.High); err != nil {
		t.Fatal(err)
	}
	p, _ := servePrimary(t, db, PrimaryConfig{})
	feedUpdates(t, db, []string{"fx/a"}, 1, time.Now())
	waitFor(t, 5*time.Second, "the install to take sequence 1", func() bool { return db.Sequence() == 1 })
	res := db.Exec(strip.TxnSpec{
		Deadline: time.Now().Add(5 * time.Second),
		Func: func(tx *strip.Tx) error {
			tx.Set("position", -3)
			tx.Set("last-price", 1.6612)
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("commit: %+v", res)
	}

	seg, err := fs.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	walFrame := seg[8+binary.BigEndian.Uint32(seg):] // past the header record
	p.ring.mu.Lock()
	spans, n, err := p.ring.readLocked(2, nil)
	p.ring.mu.Unlock()
	if err != nil || n != 1 {
		t.Fatalf("ring read at sequence 2: %d frames, %v", n, err)
	}
	ringFrame := spans[0][:8+binary.BigEndian.Uint32(spans[0])]
	if !bytes.Equal(walFrame, ringFrame) {
		t.Fatalf("WAL record differs from the ring's frame:\n wal %x\nring %x", walFrame, ringFrame)
	}
	if msg, err := Decode(ringFrame[4 : len(ringFrame)-4]); err != nil || msg.Seq() != 2 {
		t.Fatalf("ring frame decodes to %v, %v; want the batch at sequence 2", msg, err)
	}
}

// TestWALRefusedCommitKeepsBootstrap is the replication half of the
// oversized-key regression: a WAL-backed primary refuses a commit
// whose key no frame can carry, so its general store never holds one,
// and a cold replica still bootstraps from it afterwards.
func TestWALRefusedCommitKeepsBootstrap(t *testing.T) {
	primary := openDB(t, strip.Config{Policy: strip.UpdatesFirst, WALPath: filepath.Join(t.TempDir(), "general.wal")})
	_, addr := servePrimary(t, primary, PrimaryConfig{})
	execSet(t, primary, "book/x", 1)
	res := primary.Exec(strip.TxnSpec{
		Deadline: time.Now().Add(5 * time.Second),
		Func: func(tx *strip.Tx) error {
			tx.Set(strings.Repeat("k", 70000), 2)
			return nil
		},
	})
	if res.State != strip.Failed || !errors.Is(res.Err, frame.ErrTooLarge) {
		t.Fatalf("oversized commit: %+v, want Failed wrapping frame.ErrTooLarge", res)
	}
	execSet(t, primary, "book/y", 2)

	replica := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	r, err := StartReplica(replica, ReplicaConfig{
		Addr: addr, BackoffBase: 2 * time.Millisecond, Seed: 14,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	waitFor(t, 5*time.Second, "a cold replica to bootstrap after the refused commit", func() bool {
		return bytes.Equal(encodedState(t, primary), encodedState(t, replica))
	})
}

// TestNoWALRefusedCommitKeepsSnapshot is the same regression without a
// WAL: the commit of a key no frame can carry fails instead of being
// applied, so the attached Primary never drops its event and the next
// snapshot still encodes, without the refused key.
func TestNoWALRefusedCommitKeepsSnapshot(t *testing.T) {
	primary := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	p, _ := servePrimary(t, primary, PrimaryConfig{})
	execSet(t, primary, "book/x", 1)
	long := strings.Repeat("k", 70000)
	res := primary.Exec(strip.TxnSpec{
		Deadline: time.Now().Add(5 * time.Second),
		Func: func(tx *strip.Tx) error {
			tx.Set(long, 2)
			return nil
		},
	})
	if res.State != strip.Failed || !errors.Is(res.Err, frame.ErrTooLarge) {
		t.Fatalf("oversized commit: %+v, want Failed wrapping frame.ErrTooLarge", res)
	}
	execSet(t, primary, "book/y", 2)
	s := primary.ReplicaSnapshot()
	if len(s.General) != 2 || s.General[0].Key != "book/x" || s.General[1].Key != "book/y" {
		t.Fatalf("general store after the refused commit holds %d keys, want book/x and book/y", len(s.General))
	}
	if _, err := EncodeSnapshot(s); err != nil {
		t.Fatalf("EncodeSnapshot after the refused commit: %v", err)
	}
	if d := p.dropped.Value(); d != 0 {
		t.Fatalf("the Primary dropped %d events", d)
	}
}

// TestPrimaryRestartForcesSnapshot covers cross-history resume: a
// replica that synced against one database instance must not splice
// its cursor into a different instance's stream just because the
// sequence numbers happen to line up — the epoch mismatch has to force
// a snapshot.
func TestPrimaryRestartForcesSnapshot(t *testing.T) {
	base := time.Now()
	db1 := openDB(t, strip.Config{Policy: strip.UpdatesFirst, ReplicationEpoch: 101})
	if err := db1.DefineView("fx/a", strip.High); err != nil {
		t.Fatal(err)
	}
	p1, addr1 := servePrimary(t, db1, PrimaryConfig{})

	target := &dialTarget{}
	target.setAddr(addr1)
	replica := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	rec := &recorder{}
	r, err := StartReplica(replica, ReplicaConfig{
		Dial: target.dial, BackoffBase: 2 * time.Millisecond, Seed: 13, OnFrame: rec.onFrame,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	feedUpdates(t, db1, []string{"fx/a"}, 10, base)
	waitFor(t, 5*time.Second, "first-instance sync", func() bool {
		_, uu := replica.ReplicaLag()
		return r.LastSeq() == 10 && uu == 0
	})

	// "Process restart": a different database instance takes over the
	// same role with its own history, whose sequence numbers overlap
	// the replica's cursor exactly.
	p1.Close()
	db2 := openDB(t, strip.Config{Policy: strip.UpdatesFirst, ReplicationEpoch: 202})
	if err := db2.DefineView("fx/a", strip.High); err != nil {
		t.Fatal(err)
	}
	feedUpdates(t, db2, []string{"fx/a"}, 10, base.Add(time.Hour))
	waitFor(t, 5*time.Second, "second instance to apply its history", func() bool {
		return db2.Sequence() == 10
	})
	_, addr2 := servePrimary(t, db2, PrimaryConfig{})
	target.setAddr(addr2)
	target.killConn()

	waitFor(t, 5*time.Second, "replica to re-bootstrap onto the new instance", func() bool {
		_, uu := replica.ReplicaLag()
		return uu == 0 && bytes.Equal(encodedState(t, db2), encodedState(t, replica))
	})
	if rec.snapCount() != 2 {
		t.Errorf("replica used %d snapshots, want 2 (cold bootstrap + epoch change)", rec.snapCount())
	}
}

// openConns counts a primary's live replica connections.
func openConns(p *Primary) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// TestDeadConnectionReaped covers the quiet-primary leak: a replica
// connection that dies while its handler waits for frames must be
// noticed and released without waiting for the next append.
func TestDeadConnectionReaped(t *testing.T) {
	primary := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	p, addr := servePrimary(t, primary, PrimaryConfig{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := fmt.Fprintf(conn, "RESUME 0 0\n"); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	// Drain the greeting and the bootstrap snapshot so the handler is
	// parked in awaitFrom on a primary that will never append again.
	br := bufio.NewReader(conn)
	if _, err := readGreeting(br); err != nil {
		t.Fatalf("greeting: %v", err)
	}
	if _, err := readFrame(br); err != nil {
		t.Fatalf("bootstrap frame: %v", err)
	}
	waitFor(t, 5*time.Second, "connection to register", func() bool {
		return openConns(p) == 1
	})

	conn.Close()
	waitFor(t, 5*time.Second, "dead connection to be reaped", func() bool {
		return openConns(p) == 0
	})
}

// TestPublishAndApplyAllocations pins the two ends of the stream for a
// field-less update, each against a live database: what the primary's
// sink allocates per published event, what a caught-up connection
// handler allocates per wake, and what the replica allocates per
// applied message (the database's scheduler goroutine, which installs
// what apply queues, is inside the count).
func TestPublishAndApplyAllocations(t *testing.T) {
	p := NewPrimary(openDB(t, strip.Config{}), PrimaryConfig{RingFrames: 8})
	defer p.Close()
	ev := strip.ReplEvent{Kind: strip.ReplUpdate, Object: "x", Value: 1, Generated: time.Unix(0, 1)}
	if allocs := testing.AllocsPerRun(100, func() {
		ev.Seq++
		p.publish(ev)
	}); allocs != 0 {
		t.Errorf("Primary.publish allocates %v times per event, want 0 (framed in place; one 64 KiB chunk per ~1 400 frames)", allocs)
	}

	var gone atomic.Bool
	spans := make([][]byte, 0, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if spans, _, err = p.ring.awaitFrom(ev.Seq, spans[:0], gone.Load); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("awaitFrom allocates %v times for a caught-up reader, want 0 (spans alias the ring; the slice is reused)", allocs)
	}

	r := &Replica{db: openDB(t, strip.Config{})}
	msg := &UpdateMsg{Object: "x", Value: 1, Generated: 1}
	if allocs := testing.AllocsPerRun(100, func() {
		msg.Sequence++
		msg.Generated++
		if err := r.apply(msg, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("Replica.apply allocates %v times per update message, want 1 (the queued update)", allocs)
	}
}
