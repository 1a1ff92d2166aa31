package strip

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// ledgerBalanced reports whether every received update is accounted
// for: installed, skipped, evicted, expired or still queued.
func ledgerBalanced(s Stats) bool {
	return s.UpdatesReceived == s.UpdatesInstalled+s.UpdatesSkipped+
		s.UpdatesEvicted+s.UpdatesExpired+uint64(s.QueueLen)
}

// TestSplitUpdatesAtCapacity drives SplitUpdates by hand with the
// queue at QueueCapacity and both classes mixed in it: every High
// update installs before the ready transaction runs, the Low ones
// after it and in generation order (the class partition is popped, not
// scanned and re-inserted), and at quiescence nothing is pending and
// the ledger balances.
func TestSplitUpdatesAtCapacity(t *testing.T) {
	const capacity = 8
	clock := newFakeClock()
	db := mustOpenStepped(t, Config{Policy: SplitUpdates, QueueCapacity: capacity, Clock: clock.Now})
	for i := 0; i < 6; i++ {
		db.DefineView(fmt.Sprintf("lo%d", i), Low)
		db.DefineView(fmt.Sprintf("hi%d", i), High)
	}
	var log []string
	db.onSettle = func(u *model.Update, cause settleCause) {
		if cause == settleInstalled {
			log = append(log, fmt.Sprintf("%v %.0f", u.Class, u.Payload))
		}
	}
	// Twelve arrivals; Value carries the generation rank. The four
	// oldest generations arrive first and are evicted when the queue,
	// which holds eight, overflows; the other eight arrive newest
	// first, so arrival order is the reverse of generation order.
	base := clock.Now()
	for _, rank := range []int{1, 2, 3, 4, 12, 11, 10, 9, 8, 7, 6, 5} {
		class, idx := "lo", (rank-1)/2
		if rank%2 == 0 {
			class = "hi"
		}
		if err := db.ApplyUpdate(Update{
			Object:    fmt.Sprintf("%s%d", class, idx),
			Value:     float64(rank),
			Generated: base.Add(time.Duration(rank) * time.Millisecond),
		}); err != nil {
			t.Fatal(err)
		}
	}
	req := &txnReq{
		spec: TxnSpec{Deadline: base.Add(time.Hour), Func: func(*Tx) error {
			log = append(log, "txn")
			return nil
		}},
		res: make(chan Result, 1),
	}
	db.txnCh <- req
	clock.Advance(20 * time.Millisecond)
	for db.step() {
	}

	want := []string{"high 6", "high 8", "high 10", "high 12", "txn", "low 5", "low 7", "low 9", "low 11"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("schedule = %v\n     want %v", log, want)
	}
	if res := <-req.res; !res.Committed() {
		t.Errorf("transaction: %+v", res)
	}
	for _, v := range db.views {
		if v.pending != 0 {
			t.Errorf("pending[%s] = %d at quiescence", v.name, v.pending)
		}
	}
	s := db.Stats()
	if s.UpdatesReceived != 12 || s.UpdatesInstalled != 8 || s.UpdatesEvicted != 4 || s.QueueLen != 0 {
		t.Errorf("stats = %+v", s)
	}
	if !ledgerBalanced(s) {
		t.Errorf("ledger does not balance: %+v", s)
	}
}

// TestUUStaleUntilApplied pins the unapplied-update criterion (§2): an
// object is stale from the moment its update is queued until the value
// is written, with no instant in between at which it reads fresh on
// the old value — and the conservation ledger balances at every such
// instant. An observer samples both under the database lock while the
// scheduler installs one update after another.
func TestUUStaleUntilApplied(t *testing.T) {
	db := mustOpen(t, Config{Policy: TransactionsFirst})
	db.DefineView("x", Low)
	id, _, _ := db.lookup("x")

	var stop atomic.Bool
	violation := make(chan string, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			db.mu.RLock()
			s := db.stats
			pending := db.views[id].pending
			value := db.views[id].value
			db.mu.RUnlock()
			var msg string
			switch {
			case s.UpdatesReceived != s.UpdatesInstalled+s.UpdatesSkipped+uint64(pending):
				msg = fmt.Sprintf("ledger off: received %d, installed %d, skipped %d, pending %d",
					s.UpdatesReceived, s.UpdatesInstalled, s.UpdatesSkipped, pending)
			case pending == 0 && value != float64(s.UpdatesReceived):
				msg = fmt.Sprintf("fresh on an old value: update %d received, value still %v",
					s.UpdatesReceived, value)
			default:
				continue
			}
			select {
			case violation <- msg:
			default:
			}
			return
		}
	}()

	// One update in flight at a time; the i-th carries value i.
	base := time.Now()
	for i := 1; i <= 20000 && len(violation) == 0; i++ {
		db.ApplyUpdate(Update{Object: "x", Value: float64(i), Generated: base.Add(time.Duration(i) * time.Microsecond)})
		for db.Stats().UpdatesInstalled < uint64(i) {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	<-done
	select {
	case msg := <-violation:
		t.Fatal(msg)
	default:
	}
}

// TestImportanceOutOfRange: the class queue has a partition for Low and
// one for High and indexes them by the update's class, so a class
// outside that range must be refused where it enters — a view
// definition, a replicated update, a snapshot — rather than reach the
// scheduler. Nothing the refused call named may be left behind.
func TestImportanceOutOfRange(t *testing.T) {
	db := mustOpenStepped(t, Config{Policy: SplitUpdates})
	bad := Importance(2)
	if err := db.DefineView("a", bad); err == nil {
		t.Error("DefineView accepted importance 2")
	}
	if err := db.DefineView("b", Importance(-1)); err == nil {
		t.Error("DefineView accepted importance -1")
	}
	if err := db.DefineView("x", Low); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyReplicated(Update{Object: "x", Value: 1}, bad); err == nil {
		t.Error("ApplyReplicated accepted importance 2 for a defined view")
	}
	if err := db.ApplyReplicated(Update{Object: "c", Value: 1}, bad); err == nil {
		t.Error("ApplyReplicated defined a view with importance 2")
	}
	snap := Snapshot{Views: []SnapshotView{
		{Name: "d", Importance: Low, Value: 1, Generated: time.Now()},
		{Name: "e", Importance: bad, Value: 1, Generated: time.Now()},
	}}
	if err := db.InstallSnapshot(snap); err == nil {
		t.Error("InstallSnapshot accepted importance 2")
	}
	if err := db.ResetToSnapshot(snap); err == nil {
		t.Error("ResetToSnapshot accepted importance 2")
	}
	for db.step() {
	}
	if got := fmt.Sprint(db.Views()); got != "[x]" {
		t.Errorf("views = %s, want only x", got)
	}
	if s := db.Stats(); s.UpdatesReceived != 0 || s.ReplSnapshotsInstalled != 0 {
		t.Errorf("refused input was counted: %+v", s)
	}
}

// TestOnDemandRefreshFindsReplicatedUpdate: a replica may define a view
// with another importance than its primary streams. The update is
// queued under the local definition — the one a read looks the class
// up by — so the OnDemand refresh finds it.
func TestOnDemandRefreshFindsReplicatedUpdate(t *testing.T) {
	clock := newFakeClock()
	db := mustOpenStepped(t, Config{Policy: OnDemand, Clock: clock.Now})
	db.DefineView("x", Low)
	if err := db.ApplyReplicated(Update{Object: "x", Value: 7, Generated: clock.Now()}, High); err != nil {
		t.Fatal(err)
	}
	var read Entry
	req := &txnReq{
		spec: TxnSpec{Deadline: clock.Now().Add(time.Hour), Func: func(tx *Tx) (err error) {
			read, err = tx.Read("x")
			return err
		}},
		res: make(chan Result, 1),
	}
	db.txnCh <- req
	if !db.step() {
		t.Fatal("nothing to do")
	}
	if res := <-req.res; !res.Committed() || res.ReadStale {
		t.Errorf("transaction: %+v", res)
	}
	if read.Value != 7 || read.Stale {
		t.Errorf("read %+v, want the queued value 7, fresh", read)
	}
	if s := db.Stats(); s.UpdatesInstalled != 1 {
		t.Errorf("the read did not install the queued update: %+v", s)
	}
}

// TestCloseReceivesAndReapsFirst: the pass on which the scheduler sees
// Close still receives what is buffered and reaps what is dead, so the
// final Stats count every accepted update and a transaction already
// past its deadline is reported as that, not as a casualty of Close.
func TestCloseReceivesAndReapsFirst(t *testing.T) {
	clock := newFakeClock()
	db, err := open(Config{Policy: TransactionsFirst, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	db.DefineView("x", Low)
	if err := db.ApplyUpdate(Update{Object: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	late := &txnReq{
		spec: TxnSpec{Deadline: clock.Now().Add(time.Millisecond), Func: func(*Tx) error { return nil }},
		res:  make(chan Result, 1),
	}
	live := &txnReq{
		spec: TxnSpec{Deadline: clock.Now().Add(time.Hour), Func: func(*Tx) error { return nil }},
		res:  make(chan Result, 1),
	}
	db.txnCh <- late
	db.txnCh <- live
	clock.Advance(time.Second)
	// The scheduler starts only once Close has asked it to stop.
	go func() {
		<-db.stopCh
		db.loop()
	}()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if res := <-late.res; res.State != AbortedDeadline {
		t.Errorf("transaction past its deadline: %+v, want AbortedDeadline", res)
	}
	if res := <-live.res; res.State != Failed || res.Err != ErrClosed {
		t.Errorf("live transaction: %+v, want Failed/ErrClosed", res)
	}
	if s := db.Stats(); s.UpdatesReceived != 1 || s.QueueLen != 1 || !ledgerBalanced(s) {
		t.Errorf("final stats miss the buffered update: %+v", s)
	}
}
