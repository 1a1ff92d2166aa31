package strip_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/strip"
)

func openReplDB(t *testing.T, cfg strip.Config) *strip.DB {
	t.Helper()
	db, err := strip.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func replWaitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// eventLog records sink events; the sink runs under the database's
// write lock, the test reads concurrently.
type eventLog struct {
	mu     sync.Mutex
	events []strip.ReplEvent
}

func (l *eventLog) sink(ev strip.ReplEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *eventLog) snapshot() []strip.ReplEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]strip.ReplEvent(nil), l.events...)
}

// TestReplicationSequenceTotalOrder verifies the core contract: every
// worthy install and every committed batch gets the next sequence
// number, with no gaps, across both the scheduler and committer paths.
func TestReplicationSequenceTotalOrder(t *testing.T) {
	db := openReplDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if err := db.DefineView("obj", strip.High); err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	db.SetReplicationSink(log.sink)

	base := time.Now()
	const n = 25
	for i := 0; i < n; i++ {
		err := db.ApplyUpdate(strip.Update{
			Object: "obj", Value: float64(i), Generated: base.Add(time.Duration(i) * time.Millisecond),
		})
		if err != nil {
			t.Fatalf("ApplyUpdate %d: %v", i, err)
		}
		if i%5 == 0 {
			res := db.Exec(strip.TxnSpec{
				Value:    1,
				Deadline: time.Now().Add(5 * time.Second),
				Func: func(tx *strip.Tx) error {
					tx.Set("counter", float64(i))
					return nil
				},
			})
			if !res.Committed() {
				t.Fatalf("transaction %d: %v", i, res.Err)
			}
		}
	}
	const want = n + n/5
	replWaitFor(t, "all events to publish", func() bool { return db.Sequence() == want })

	events := log.snapshot()
	if len(events) != want {
		t.Fatalf("sink saw %d events, want %d", len(events), want)
	}
	updates, batches := 0, 0
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d carries seq %d; sequence must be contiguous from 1", i, ev.Seq)
		}
		switch ev.Kind {
		case strip.ReplUpdate:
			updates++
			if ev.Object != "obj" || ev.Importance != strip.High {
				t.Errorf("update event %d: object %q importance %v", i, ev.Object, ev.Importance)
			}
		case strip.ReplBatch:
			batches++
			if len(ev.Writes) != 1 || ev.Writes[0].Key != "counter" {
				t.Errorf("batch event %d: writes %v", i, ev.Writes)
			}
		}
	}
	if updates != n || batches != n/5 {
		t.Errorf("saw %d updates and %d batches, want %d and %d", updates, batches, n, n/5)
	}
	if got := db.Stats().ReplicationSeq; got != want {
		t.Errorf("Stats.ReplicationSeq = %d, want %d", got, want)
	}

	// Detaching the sink must NOT pause sequence numbering: the
	// sequence numbers the database's history itself, so a change
	// applied while detached still consumes a number and a replica
	// resuming from before it cannot silently skip it.
	db.SetReplicationSink(nil)
	if err := db.ApplyUpdate(strip.Update{Object: "obj", Value: 99, Generated: base.Add(time.Second)}); err != nil {
		t.Fatal(err)
	}
	replWaitFor(t, "detached install", func() bool {
		e, err := db.Peek("obj")
		return err == nil && e.Value == 99
	})
	if got := db.Sequence(); got != want+1 {
		t.Errorf("sequence = %d after a detached install, want %d (numbering continues without a sink)", got, want+1)
	}
	if got := len(log.snapshot()); got != want {
		t.Errorf("detached sink received %d events, want %d (no delivery after detach)", got, want)
	}
}

// TestApplyReplicatedAutoDefine checks that a replica imports unknown
// view objects from the stream instead of rejecting them.
func TestApplyReplicatedAutoDefine(t *testing.T) {
	db := openReplDB(t, strip.Config{Policy: strip.UpdatesFirst})
	gen := time.Now()
	err := db.ApplyReplicated(strip.Update{
		Object: "imported", Value: 1.5, Generated: gen,
		Fields: map[string]float64{"bid": 1.4},
	}, strip.High)
	if err != nil {
		t.Fatalf("ApplyReplicated: %v", err)
	}
	replWaitFor(t, "imported view to install", func() bool {
		e, err := db.Peek("imported")
		return err == nil && e.Value == 1.5
	})
	e, err := db.Peek("imported")
	if err != nil {
		t.Fatal(err)
	}
	if e.Fields["bid"] != 1.4 {
		t.Errorf("fields not carried: %v", e.Fields)
	}
	if !e.Generated.Equal(time.Unix(0, gen.UnixNano())) {
		t.Errorf("generation time %v, want %v (exact nanos preserved)", e.Generated, gen)
	}
	if ma, uu := db.ReplicaLag(); ma != 0 || uu != 0 {
		t.Errorf("lag after install = (%v, %d), want (0, 0)", ma, uu)
	}

	// A duplicate (same generation) is unworthy: skipped, and the lag
	// accounting must not leak a pending count.
	if err := db.ApplyReplicated(strip.Update{Object: "imported", Value: 2, Generated: gen}, strip.High); err != nil {
		t.Fatal(err)
	}
	replWaitFor(t, "duplicate to be skipped", func() bool {
		_, uu := db.ReplicaLag()
		return uu == 0
	})
	if e, _ := db.Peek("imported"); e.Value != 1.5 {
		t.Errorf("unworthy duplicate overwrote the view: %v", e.Value)
	}
}

// TestApplyReplicatedDerivedRejected: derived views are computed, not
// imported.
func TestApplyReplicatedDerivedRejected(t *testing.T) {
	db := openReplDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if err := db.DefineView("base", strip.High); err != nil {
		t.Fatal(err)
	}
	err := db.DefineDerived("double", []string{"base"}, func(v []float64) float64 { return 2 * v[0] })
	if err != nil {
		t.Fatal(err)
	}
	err = db.ApplyReplicated(strip.Update{Object: "double", Value: 1, Generated: time.Now()}, strip.Low)
	if !errors.Is(err, strip.ErrDerivedUpdate) {
		t.Errorf("ApplyReplicated to derived view = %v, want ErrDerivedUpdate", err)
	}
}

// TestApplyReplicatedBatch applies a committed batch and checks it is
// re-published for chaining.
func TestApplyReplicatedBatch(t *testing.T) {
	db := openReplDB(t, strip.Config{Policy: strip.UpdatesFirst})
	log := &eventLog{}
	db.SetReplicationSink(log.sink)
	writes := []strip.KeyValue{{Key: "a", Value: 1}, {Key: "b", Value: 2}}
	if err := db.ApplyReplicatedBatch(writes); err != nil {
		t.Fatalf("ApplyReplicatedBatch: %v", err)
	}
	res := db.Exec(strip.TxnSpec{
		Value:    1,
		Deadline: time.Now().Add(5 * time.Second),
		Func: func(tx *strip.Tx) error {
			for _, kv := range writes {
				if v, ok := tx.Get(kv.Key); !ok || v != kv.Value {
					t.Errorf("Get(%s) = %v, %v; want %v", kv.Key, v, ok, kv.Value)
				}
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("read-back transaction: %v", res.Err)
	}
	events := log.snapshot()
	if len(events) != 1 || events[0].Kind != strip.ReplBatch {
		t.Fatalf("batch not re-published: %v", events)
	}
	if !reflect.DeepEqual(events[0].Writes, writes) {
		t.Errorf("re-published writes %v, want %v", events[0].Writes, writes)
	}
	if got := db.Stats().ReplBatchesApplied; got != 1 {
		t.Errorf("Stats.ReplBatchesApplied = %d, want 1", got)
	}
}

// TestSnapshotRoundTripBetweenDatabases moves state via
// ReplicaSnapshot/InstallSnapshot and compares the resulting cuts.
func TestSnapshotRoundTripBetweenDatabases(t *testing.T) {
	src := openReplDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if err := src.DefineView("v1", strip.High); err != nil {
		t.Fatal(err)
	}
	if err := src.DefineView("v2", strip.Low); err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	for i := 0; i < 6; i++ {
		obj := "v1"
		if i%2 == 1 {
			obj = "v2"
		}
		err := src.ApplyUpdate(strip.Update{
			Object: obj, Value: float64(i), Generated: base.Add(time.Duration(i) * time.Millisecond),
			Fields: map[string]float64{"f": float64(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	replWaitFor(t, "source installs", func() bool { return src.Stats().UpdatesInstalled == 6 })
	res := src.Exec(strip.TxnSpec{
		Value:    1,
		Deadline: time.Now().Add(5 * time.Second),
		Func:     func(tx *strip.Tx) error { tx.Set("g", 7); return nil },
	})
	if !res.Committed() {
		t.Fatal(res.Err)
	}

	snap := src.ReplicaSnapshot()
	dst := openReplDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if err := dst.InstallSnapshot(snap); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	got := dst.ReplicaSnapshot()
	snap.Seq, got.Seq = 0, 0
	if !reflect.DeepEqual(snap, got) {
		t.Errorf("snapshot round trip diverged:\n src %+v\n dst %+v", snap, got)
	}
	if got := dst.Stats().ReplSnapshotsInstalled; got != 1 {
		t.Errorf("Stats.ReplSnapshotsInstalled = %d, want 1", got)
	}

	// Installing the same snapshot again must be idempotent (equal
	// generations are not newer).
	if err := dst.InstallSnapshot(snap); err != nil {
		t.Fatalf("re-InstallSnapshot: %v", err)
	}
	again := dst.ReplicaSnapshot()
	again.Seq = 0
	if !reflect.DeepEqual(snap, again) {
		t.Errorf("re-installing a snapshot changed state")
	}
}

// TestInstallSnapshotRepublishes verifies that a database applying a
// bootstrap snapshot re-publishes the applied state to its own sink,
// so replicas chained below a re-bootstrapped mid-tier see it.
func TestInstallSnapshotRepublishes(t *testing.T) {
	src := openReplDB(t, strip.Config{Policy: strip.UpdatesFirst})
	base := time.Now()
	for i, obj := range []string{"v1", "v2"} {
		if err := src.DefineView(obj, strip.High); err != nil {
			t.Fatal(err)
		}
		err := src.ApplyUpdate(strip.Update{
			Object: obj, Value: float64(i + 1), Generated: base.Add(time.Duration(i) * time.Millisecond),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	replWaitFor(t, "source installs", func() bool { return src.Stats().UpdatesInstalled == 2 })
	res := src.Exec(strip.TxnSpec{
		Value:    1,
		Deadline: time.Now().Add(5 * time.Second),
		Func:     func(tx *strip.Tx) error { tx.Set("g", 7); return nil },
	})
	if !res.Committed() {
		t.Fatal(res.Err)
	}

	dst := openReplDB(t, strip.Config{Policy: strip.UpdatesFirst})
	log := &eventLog{}
	dst.SetReplicationSink(log.sink)
	if err := dst.InstallSnapshot(src.ReplicaSnapshot()); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}

	events := log.snapshot()
	if len(events) != 3 {
		t.Fatalf("sink saw %d events, want 2 view updates + 1 batch: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d carries seq %d; re-published events must be contiguous", i, ev.Seq)
		}
	}
	for i, obj := range []string{"v1", "v2"} {
		if events[i].Kind != strip.ReplUpdate || events[i].Object != obj || events[i].Value != float64(i+1) {
			t.Errorf("event %d = %+v, want update of %s", i, events[i], obj)
		}
	}
	if events[2].Kind != strip.ReplBatch || len(events[2].Writes) != 1 || events[2].Writes[0].Key != "g" {
		t.Errorf("event 2 = %+v, want the general-data batch", events[2])
	}
}

// TestOnDemandMixedFeedSettlesLag pins the OnDemand refresh accounting
// for a mixed local/replicated queue: when a newer local update
// supersedes an older replicated one, the replicated entry's pending
// count must settle (UU back to zero) and the local install must clear
// the MA lag.
func TestOnDemandMixedFeedSettlesLag(t *testing.T) {
	db := openReplDB(t, strip.Config{Policy: strip.OnDemand})
	if err := db.DefineView("obj", strip.High); err != nil {
		t.Fatal(err)
	}

	// Park the scheduler so both updates queue before any read.
	gate := make(chan struct{})
	started := make(chan struct{})
	go db.Exec(strip.TxnSpec{
		Value:    1,
		Deadline: time.Now().Add(5 * time.Second),
		Func: func(tx *strip.Tx) error {
			close(started)
			<-gate
			return nil
		},
	})
	<-started

	base := time.Now()
	if err := db.ApplyReplicated(strip.Update{Object: "obj", Value: 1, Generated: base}, strip.High); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyUpdate(strip.Update{Object: "obj", Value: 2, Generated: base.Add(time.Second)}); err != nil {
		t.Fatal(err)
	}

	type readResult struct {
		e   strip.Entry
		err error
	}
	readDone := make(chan readResult, 1)
	go func() {
		var rr readResult
		res := db.Exec(strip.TxnSpec{
			Value:    1,
			Deadline: time.Now().Add(5 * time.Second),
			Func: func(tx *strip.Tx) error {
				rr.e, rr.err = tx.Read("obj")
				return rr.err
			},
		})
		if !res.Committed() {
			rr.err = res.Err
		}
		readDone <- rr
	}()
	time.Sleep(20 * time.Millisecond)
	close(gate)

	rr := <-readDone
	if rr.err != nil {
		t.Fatalf("reader transaction: %v", rr.err)
	}
	if rr.e.Value != 2 {
		t.Errorf("read value %v, want 2 (the newer local update)", rr.e.Value)
	}
	s := db.Stats()
	if s.UpdatesInstalled != 1 || s.UpdatesSkipped != 1 {
		t.Errorf("installed/skipped = %d/%d, want 1/1", s.UpdatesInstalled, s.UpdatesSkipped)
	}
	if s.ReplicaLagUpdates != 0 {
		t.Errorf("ReplicaLagUpdates = %d, want 0 (superseded replicated entry must settle)", s.ReplicaLagUpdates)
	}
	if s.ReplicaLagSeconds != 0 {
		t.Errorf("ReplicaLagSeconds = %v, want 0 (local install is newer than everything received)", s.ReplicaLagSeconds)
	}
}

// TestObjectLag exercises the per-object lag probe.
func TestObjectLag(t *testing.T) {
	db := openReplDB(t, strip.Config{Policy: strip.UpdatesFirst})
	if _, _, err := db.ObjectLag("nope"); !errors.Is(err, strip.ErrUnknownObject) {
		t.Errorf("ObjectLag(unknown) = %v, want ErrUnknownObject", err)
	}
	if err := db.ApplyReplicated(strip.Update{Object: "o", Value: 1, Generated: time.Now()}, strip.Low); err != nil {
		t.Fatal(err)
	}
	// Wait for the install itself: uu also reads 0 before the
	// scheduler has taken the update out of the ingest buffer.
	replWaitFor(t, "install", func() bool { return db.Stats().UpdatesInstalled == 1 })
	ma, uu, err := db.ObjectLag("o")
	if err != nil || ma != 0 || uu != 0 {
		t.Errorf("ObjectLag after install = (%v, %d, %v), want (0, 0, nil)", ma, uu, err)
	}
}
