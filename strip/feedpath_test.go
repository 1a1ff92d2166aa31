package strip

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/strip/fault"
)

// The feed path — ApplyUpdate, the ingest buffer, the queue, install —
// away from db.mu: offers that take no lock, loss that is always
// counted, and a per-update allocation budget.

// TestApplyUpdateTakesNoLock holds db.mu for writing, as the scheduler
// does for a whole install run, and offers updates from another
// goroutine: accepted, refused for an unknown object, refused for a
// derived view and dropped at a full buffer, every offer returns while
// the lock is still held.
func TestApplyUpdateTakesNoLock(t *testing.T) {
	db := mustOpenStepped(t, Config{IngestBuffer: 2})
	db.DefineView("x", Low)
	if err := db.DefineDerived("d", []string{"x"}, func(v []float64) float64 { return v[0] }); err != nil {
		t.Fatal(err)
	}
	// The first lock-free lookup publishes the registry, under db.mu,
	// once.
	if err := db.ApplyUpdate(Update{Object: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}

	db.mu.Lock()
	errs := make(chan error, 4)
	go func() {
		errs <- db.ApplyUpdate(Update{Object: "x", Value: 2})
		errs <- db.ApplyUpdate(Update{Object: "nope", Value: 3})
		errs <- db.ApplyUpdate(Update{Object: "d", Value: 4})
		errs <- db.ApplyUpdate(Update{Object: "x", Value: 5}) // buffer of 2 is full
	}()
	want := []error{nil, ErrUnknownObject, ErrDerivedUpdate, nil}
	for i, w := range want {
		select {
		case err := <-errs:
			if !errors.Is(err, w) {
				t.Errorf("offer %d: %v, want %v", i, err, w)
			}
		case <-time.After(10 * time.Second):
			db.mu.Unlock()
			t.Fatalf("offer %d is waiting for db.mu", i)
		}
	}
	db.mu.Unlock()
	for db.step() {
	}
	if s := db.Stats(); s.UpdatesReceived != 2 || s.UpdatesDropped != 1 {
		t.Errorf("received %d, dropped %d; want 2 and 1", s.UpdatesReceived, s.UpdatesDropped)
	}
}

// TestApplyReplicatedTakesNoLock holds db.mu for writing, as the
// scheduler does for a whole install run, and feeds replicated updates
// for views already defined from another goroutine: accepted, refused
// for a derived view, accepted under a carried importance the local
// definition overrides — every call returns while the lock is still
// held. The updates count as replica lag once the scheduler has
// received them, not before.
func TestApplyReplicatedTakesNoLock(t *testing.T) {
	db := mustOpenStepped(t, Config{IngestBuffer: 2})
	db.DefineView("x", Low)
	if err := db.DefineDerived("d", []string{"x"}, func(v []float64) float64 { return v[0] }); err != nil {
		t.Fatal(err)
	}
	gen := time.Now()

	db.mu.Lock()
	errs := make(chan error, 3)
	go func() {
		errs <- db.ApplyReplicated(Update{Object: "x", Value: 1, Generated: gen}, Low)
		errs <- db.ApplyReplicated(Update{Object: "d", Value: 2, Generated: gen}, Low)
		errs <- db.ApplyReplicated(Update{Object: "x", Value: 3, Generated: gen.Add(time.Second)}, High)
	}()
	want := []error{nil, ErrDerivedUpdate, nil}
	for i, w := range want {
		select {
		case err := <-errs:
			if !errors.Is(err, w) {
				t.Errorf("replicated update %d: %v, want %v", i, err, w)
			}
		case <-time.After(10 * time.Second):
			db.mu.Unlock()
			t.Fatalf("replicated update %d is waiting for db.mu", i)
		}
	}
	db.mu.Unlock()
	if s := db.Stats(); s.ReplicaLagUpdates != 0 {
		t.Errorf("replica lag %d updates before the scheduler received any, want 0", s.ReplicaLagUpdates)
	}
	db.intake()
	if s := db.Stats(); s.UpdatesReceived != 2 || s.ReplicaLagUpdates != 2 {
		t.Errorf("received %d, replica lag %d updates; want 2 and 2", s.UpdatesReceived, s.ReplicaLagUpdates)
	}
	for db.step() {
	}
	if ma, uu := db.ReplicaLag(); ma != 0 || uu != 0 {
		t.Errorf("replica lag after the installs = %v s, %d updates; want 0, 0", ma, uu)
	}
	if e, _ := db.Peek("x"); e.Value != 3 {
		t.Errorf("x = %v, want 3", e.Value)
	}
}

// TestDefinitionsAfterPublication: once offers have started, every way
// of defining a view — DefineView, DefineDerived, a replicated update
// for an unknown view, a snapshot — leaves it visible to the next
// lock-free lookup, and the views defined before stay known, also to a
// reader still holding a table the definitions have since outgrown.
func TestDefinitionsAfterPublication(t *testing.T) {
	db := mustOpenStepped(t, Config{})
	db.DefineView("a", Low)
	if err := db.ApplyUpdate(Update{Object: "a", Value: 1}); err != nil {
		t.Fatal(err)
	}
	published := db.defs.Load()

	db.DefineView("b", High)
	if err := db.DefineDerived("d", []string{"a", "b"}, func(v []float64) float64 { return v[0] + v[1] }); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyReplicated(Update{Object: "c", Value: 1}, High); err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{Views: []SnapshotView{
		{Name: "s1", Importance: Low, Value: 1, Generated: time.Now()},
		{Name: "s2", Importance: High, Value: 2, Generated: time.Now()},
	}}
	if err := db.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	snap.Views = append(snap.Views, SnapshotView{Name: "s3", Importance: Low, Value: 3, Generated: time.Now()})
	if err := db.ResetToSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	for i := range minIndex {
		db.DefineView(fmt.Sprintf("pad%d", i), Low)
	}

	if db.defs.Load() == published {
		t.Fatal("the definitions did not outgrow the first table")
	}
	if id, p := published.find("a", maphash.String(db.seed, "a")); p == nil || id != 0 {
		t.Errorf("the outgrown table resolves a to %d, %v; want 0, found", id, p != nil)
	}
	for name, class := range map[string]Importance{"a": Low, "b": High, "c": High, "s1": Low, "s2": High, "s3": Low} {
		if ref, ok := db.lookup(name); !ok || ref.class != class {
			t.Errorf("lookup(%q) = class %v, known %v", name, ref.class, ok)
		}
		if err := db.ApplyUpdate(Update{Object: name, Value: 9}); err != nil {
			t.Errorf("ApplyUpdate(%q): %v", name, err)
		}
	}
	if err := db.ApplyUpdate(Update{Object: "d"}); !errors.Is(err, ErrDerivedUpdate) {
		t.Errorf("offer to the derived view: %v", err)
	}
}

// TestConcurrentOffersDefinitionsAndClose runs the lock-free offer path
// against everything that changes what it reads: offerers, a definer of
// views, a definer of derived views, subscribers, and finally Close. A
// view whose DefineView has returned is never unknown, a derived view
// always refuses, every offer begun after Close returned is ErrClosed,
// and when the dust settles every accepted offer is in the ledger:
// offered = dropped + received, received = installed + skipped +
// evicted + expired + queued. Run under -race (make race).
func TestConcurrentOffersDefinitionsAndClose(t *testing.T) {
	const views, offerers = 300, 4
	db, err := Open(Config{
		Policy: UpdatesFirst, MaxAge: 5 * time.Second,
		IngestBuffer: 64, QueueCapacity: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineView("v0", Low); err != nil {
		t.Fatal(err)
	}

	var (
		defined, derived atomic.Int64 // v0..v(defined-1) and d0..d(derived-1) exist
		offered          atomic.Uint64
		closeReturned    atomic.Bool
		wg               sync.WaitGroup
	)
	defined.Store(1)

	wg.Add(1)
	go func() { // views
		defer wg.Done()
		for i := 1; i < views; i++ {
			if err := db.DefineView(fmt.Sprintf("v%d", i), Importance(i%2)); err != nil {
				t.Errorf("DefineView: %v", err)
				return
			}
			defined.Store(int64(i + 1))
		}
	}()
	wg.Add(1)
	go func() { // derived views
		defer wg.Done()
		for i := 0; i < views/4; i++ {
			dep := fmt.Sprintf("v%d", int(defined.Load())-1)
			err := db.DefineDerived(fmt.Sprintf("d%d", i), []string{dep}, func(v []float64) float64 { return v[0] })
			if err != nil {
				t.Errorf("DefineDerived: %v", err)
				return
			}
			derived.Store(int64(i + 1))
		}
	}()
	wg.Add(1)
	go func() { // subscribers
		defer wg.Done()
		for i := 0; i < views/4; i++ {
			name := fmt.Sprintf("v%d", int(defined.Load())-1)
			_, cancel, err := db.Watch(name, 1)
			if err != nil {
				t.Errorf("Watch(%s): %v", name, err)
				return
			}
			if i%2 == 0 {
				cancel()
			}
			if err := db.OnInstall(name, func(Entry) {}); err != nil {
				t.Errorf("OnInstall(%s): %v", name, err)
				return
			}
		}
	}()

	var offerWG sync.WaitGroup
	for g := 0; g < offerers; g++ {
		offerWG.Add(1)
		go func(g int) {
			defer offerWG.Done()
			refusedClosed := 0
			for i := 0; refusedClosed < 100; i++ {
				afterClose := closeReturned.Load()
				n := int(defined.Load())
				u := Update{Object: fmt.Sprintf("v%d", (i*7+g)%n), Value: float64(i)}
				if i%5 == 0 {
					// Born stale: expires in the queue or on arrival.
					u.Generated = time.Now().Add(-time.Minute)
				}
				err := db.ApplyUpdate(u)
				switch {
				case err == nil && !afterClose:
					offered.Add(1)
				case err == ErrClosed:
					refusedClosed++
				default:
					t.Errorf("ApplyUpdate(%s) = %v (begun after Close returned: %v)", u.Object, err, afterClose)
					return
				}
				if d := int(derived.Load()); d > 0 && i%16 == 0 {
					err := db.ApplyUpdate(Update{Object: fmt.Sprintf("d%d", i%d)})
					if !errors.Is(err, ErrDerivedUpdate) && err != ErrClosed {
						t.Errorf("offer to a derived view = %v", err)
						return
					}
				}
			}
		}(g)
	}

	wg.Wait() // everything is defined and subscribed; offers keep coming
	waitFor(t, time.Minute, func() bool { return db.Stats().UpdatesInstalled >= 2000 })
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	closeReturned.Store(true)
	offerWG.Wait()

	s := db.Stats()
	if got := s.UpdatesDropped + s.UpdatesReceived; got != offered.Load() {
		t.Errorf("offered %d = dropped %d + received %d does not hold (off by %d)",
			offered.Load(), s.UpdatesDropped, s.UpdatesReceived, int64(offered.Load())-int64(got))
	}
	if !ledgerBalanced(s) {
		t.Errorf("received != installed + skipped + evicted + expired + queued: %+v", s)
	}
	if s.UpdatesDropped == 0 || s.UpdatesEvicted == 0 || s.UpdatesExpired == 0 {
		t.Logf("not every loss path was taken this time: %+v", s)
	}
}

// TestArrivalThatIsItsOwnOverflowVictim: with the queue at capacity an
// arrival older than everything queued is the one the overflow evicts.
// That is a capacity casualty, counted and reported as evicted — not a
// skip, which is an update losing to a newer generation of its own
// object. A coalescing queue rejecting an arrival for exactly that
// reason still counts a skip.
func TestArrivalThatIsItsOwnOverflowVictim(t *testing.T) {
	clock := newFakeClock()
	base := clock.Now()
	fates := map[float64]settleCause{}
	build := func(coalesce bool) *DB {
		db := mustOpenStepped(t, Config{Policy: TransactionsFirst, QueueCapacity: 4, Coalesce: coalesce, Clock: clock.Now})
		db.onSettle = func(u *model.Update, cause settleCause) { fates[u.Payload] = cause }
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("v%d", i)
			db.DefineView(name, Low)
			db.ApplyUpdate(Update{Object: name, Value: float64(i), Generated: base.Add(time.Duration(10+i) * time.Millisecond)})
		}
		return db
	}

	db := build(false)
	// Older than all four queued, for an object that has one queued.
	db.ApplyUpdate(Update{Object: "v2", Value: 99, Generated: base.Add(time.Millisecond)})
	db.intake()
	s := db.Stats()
	if s.UpdatesEvicted != 1 || s.UpdatesSkipped != 0 || s.QueueLen != 4 || !ledgerBalanced(s) {
		t.Errorf("stats = %+v, want the arrival evicted", s)
	}
	if cause, ok := fates[99]; !ok || cause != settleEvicted {
		t.Errorf("onSettle saw %v (settled %v), want settleEvicted", cause, ok)
	}

	db = build(true)
	db.ApplyUpdate(Update{Object: "v2", Value: 98, Generated: base.Add(time.Millisecond)})
	db.intake()
	s = db.Stats()
	if s.UpdatesSkipped != 1 || s.UpdatesEvicted != 0 || !ledgerBalanced(s) {
		t.Errorf("coalescing: stats = %+v, want the rejected arrival skipped", s)
	}
	if cause := fates[98]; cause != settleSkipped {
		t.Errorf("coalescing: onSettle saw %v, want settleSkipped", cause)
	}
}

// TestMalformedFeedLinesAreCounted feeds Serve's connection handler a
// stream with lines that do not parse between lines that do: the good
// ones install, the bad ones are counted in Stats and in the
// strip_feed_malformed_total series, and the stream goes on.
func TestMalformedFeedLinesAreCounted(t *testing.T) {
	db := mustOpen(t, Config{})
	db.DefineView("x", Low)
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		db.serveConn(server)
	}()
	lines := []string{
		"x 0 1",
		"x 0", // too few fields
		"x 0 2",
		"x yesterday 3", // bad timestamp
		"",              // blank: not a line at all
		"x 0 three",     // bad value
		"x 0 4",
	}
	if _, err := client.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-done
	waitFor(t, 5*time.Second, func() bool { return db.Stats().UpdatesInstalled == 3 })
	s := db.Stats()
	if s.FeedMalformed != 3 || s.UpdatesReceived != 3 {
		t.Errorf("malformed %d, received %d; want 3 and 3", s.FeedMalformed, s.UpdatesReceived)
	}
	var text bytes.Buffer
	if err := db.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "\nstrip_feed_malformed_total 3\n") {
		t.Errorf("strip_feed_malformed_total 3 is not in the exposition:\n%s", text.String())
	}
}

// TestFeedPathAllocations pins the per-update allocation budget of the
// feed path: an offer allocates the queued update and nothing else; in
// steady state receiving it and installing it allocate nothing.
func TestFeedPathAllocations(t *testing.T) {
	const views, batch = 50, 1000
	clock := newFakeClock()
	db := mustOpenStepped(t, Config{Policy: TransactionsFirst, IngestBuffer: 2 * batch, Clock: clock.Now})
	names := make([]string, views)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		db.DefineView(names[i], Low)
	}
	n := 0
	offerTo := func(name string) {
		n++
		clock.Advance(time.Microsecond)
		if err := db.ApplyUpdate(Update{Object: name, Value: float64(n), Generated: clock.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	offer := func() { offerTo(names[(n+1)%views]) }
	// Warm-up: the queue's free list and index grow to the deepest
	// backlog the test builds.
	for i := 0; i < 2*batch; i++ {
		offer()
	}
	for db.step() {
	}

	if allocs := testing.AllocsPerRun(batch-1, offer); allocs != 1 {
		t.Errorf("ApplyUpdate allocates %v times per offer, want 1 (the queued update)", allocs)
	}
	const burst = 50
	if allocs := testing.AllocsPerRun(9, func() {
		for i := 0; i < burst; i++ {
			offer()
		}
		db.intake()
	}); allocs != burst {
		t.Errorf("offering %d updates and receiving them allocates %v times, want %d: receiving allocates nothing", burst, allocs, burst)
	}
	if allocs := testing.AllocsPerRun(batch/2, func() {
		if !db.act(1) {
			t.Fatal("queue ran dry")
		}
	}); allocs != 0 {
		t.Errorf("a hook-less install allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1, func() { db.act(installRunLen) }); allocs != 0 {
		t.Errorf("a hook-less run allocates %v times, want 0", allocs)
	}
	for db.step() {
	}

	// The on-demand refresh: taking the object's queued updates out and
	// installing the newest. The offers are part of each run, so the
	// refresh's own share is the count less one per offer.
	ref0, _ := db.lookup(names[0])
	for _, c := range []struct {
		queued int
		want   float64
		why    string
	}{
		{1, 0, "nothing superseded: TakeFor and the install allocate nothing"},
		{3, 1, "TakeFor's slice of the two superseded updates"},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < c.queued; i++ {
				offerTo(names[0])
			}
			db.intake()
			if !db.refreshOnDemand(ref0.id, Low) {
				t.Fatal("nothing queued to refresh from")
			}
		})
		if got := allocs - float64(c.queued); got != c.want {
			t.Errorf("an on-demand refresh over %d queued updates allocates %v times, want %v (%s)", c.queued, got, c.want, c.why)
		}
	}

	// The replica's side of the stream. ApplyReplicated blocks on a full
	// ingest buffer, so each run receives what it offered.
	if allocs := testing.AllocsPerRun(100, func() {
		clock.Advance(time.Microsecond)
		if err := db.ApplyReplicated(Update{Object: names[0], Value: 1, Generated: clock.Now()}, Low); err != nil {
			t.Fatal(err)
		}
		db.intake()
	}); allocs != 1 {
		t.Errorf("ApplyReplicated allocates %v times per update, want 1 (the queued update)", allocs)
	}
	// And when the buffer is full: a database with one slot, kept full,
	// so that an ApplyReplicated counts itself in as waiting and is let
	// in by a drain. A helper goroutine stands in for the scheduler: it
	// drains the full slot while a producer is counted in, and the
	// doorbell the producer parks on allocates nothing.
	full := mustOpenStepped(t, Config{Policy: TransactionsFirst, IngestBuffer: 1, Clock: clock.Now})
	replicate := func() {
		clock.Advance(time.Microsecond)
		if err := full.ApplyReplicated(Update{Object: "r", Value: 1, Generated: clock.Now()}, Low); err != nil {
			t.Error(err)
		}
	}
	replicate() // defines the view and fills the one slot
	full.intake()
	full.act(installRunLen)
	replicate()
	var drains atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if full.ingest.waiting.Load() == 0 || full.ingest.len() == 0 {
				runtime.Gosched()
				continue
			}
			full.intake()
			full.act(installRunLen)
			drains.Add(1)
		}
	}()
	const waits = 100
	allocs := testing.AllocsPerRun(waits, replicate)
	close(stop)
	<-stopped
	// A drain can take an update in the instant between its producer's
	// store and its leaving the count, letting the next one in without
	// a wait; most wait.
	if got := drains.Load(); got < waits/2 {
		t.Errorf("only %d of %d replicated updates waited for room", got, waits+1)
	}
	if allocs != 1 {
		t.Errorf("ApplyReplicated waiting on a full buffer allocates %v times per update, want 1 (the queued update)", allocs)
	}
	writes := []KeyValue{{Key: "last-price", Value: 1.5}, {Key: "position", Value: -3}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := db.ApplyReplicatedBatch(writes); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ApplyReplicatedBatch allocates %v times per batch, want 0 (a two-write batch's map stays on the stack; no WAL, no sink)", allocs)
	}
}

// TestWALAppendAllocatesNothing pins the WAL's share of a commit on the
// real filesystem: once the writer's scratch has grown to the batch,
// encoding it, buffering it and flushing it to the OS allocate nothing.
func TestWALAppendAllocatesNothing(t *testing.T) {
	w, err := openWAL(fault.OS, filepath.Join(t.TempDir(), "strip.wal"), walState{nextGen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	writes := map[string]float64{"last-price": 1.6612, "position": -3}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := w.appendBatch(1, writes); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("walWriter.appendBatch allocates %v times per batch, want 0", allocs)
	}
}
