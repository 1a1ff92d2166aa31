package strip

import (
	"errors"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// fakeClock is a race-safe manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func mustOpen(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// mustOpenStepped builds a database whose scheduler goroutine is not
// running: the test is the scheduler, calling db.step one scheduling
// point at a time against its injected Clock. The goroutine is started
// only at cleanup, so that Close has something to stop.
func mustOpenStepped(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() {
		go db.loop()
		db.Close()
	})
	return db
}

// waitFor polls until cond returns true or the deadline expires.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestOpenCloseIdempotent(t *testing.T) {
	db, err := Open(Config{Policy: OnDemand})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("second Close should be a no-op, got", err)
	}
}

func TestDefineViewValidation(t *testing.T) {
	db := mustOpen(t, Config{})
	if err := db.DefineView("x", Low); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineView("x", High); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("duplicate define: %v", err)
	}
	views := db.Views()
	if len(views) != 1 || views[0] != "x" {
		t.Fatalf("Views = %v", views)
	}
}

func TestApplyUpdateUnknownObject(t *testing.T) {
	db := mustOpen(t, Config{})
	if err := db.ApplyUpdate(Update{Object: "nope", Value: 1}); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateVisibleToTransaction(t *testing.T) {
	db := mustOpen(t, Config{Policy: OnDemand})
	if err := db.DefineView("px", High); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyUpdate(Update{Object: "px", Value: 101.5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		e, _ := db.Peek("px")
		return e.Value == 101.5
	})
	res := db.Exec(TxnSpec{
		Value:    1,
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			e, err := tx.Read("px")
			if err != nil {
				return err
			}
			if e.Value != 101.5 {
				t.Errorf("read %v, want 101.5", e.Value)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
}

func TestReadUnknownObject(t *testing.T) {
	db := mustOpen(t, Config{})
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			_, err := tx.Read("ghost")
			return err
		},
	})
	if res.State != Failed || !errors.Is(res.Err, ErrUnknownObject) {
		t.Fatalf("result = %+v", res)
	}
}

func TestGeneralDataCommit(t *testing.T) {
	db := mustOpen(t, Config{})
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			if _, ok := tx.Get("count"); ok {
				t.Error("unexpected existing key")
			}
			tx.Set("count", 7)
			// A transaction observes its own writes.
			if v, ok := tx.Get("count"); !ok || v != 7 {
				t.Errorf("own write invisible: %v %v", v, ok)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	res = db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			if v, ok := tx.Get("count"); !ok || v != 7 {
				t.Errorf("committed write invisible: %v %v", v, ok)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
}

func TestFailedTransactionWritesDiscarded(t *testing.T) {
	db := mustOpen(t, Config{})
	boom := errors.New("boom")
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			tx.Set("k", 1)
			return boom
		},
	})
	if res.State != Failed || !errors.Is(res.Err, boom) {
		t.Fatalf("result = %+v", res)
	}
	res = db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			if _, ok := tx.Get("k"); ok {
				t.Error("aborted write leaked")
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatal("verification txn failed")
	}
}

func TestPastDeadlineAbortsWithoutRunning(t *testing.T) {
	db := mustOpen(t, Config{})
	ran := false
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(-time.Second),
		Func: func(tx *Tx) error {
			ran = true
			return nil
		},
	})
	if res.State != AbortedDeadline {
		t.Fatalf("state = %v", res.State)
	}
	if ran {
		t.Fatal("hopeless transaction should not run")
	}
}

func TestFeasibleDeadlineAbort(t *testing.T) {
	db := mustOpen(t, Config{})
	ran := false
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(10 * time.Millisecond),
		Estimate: time.Second, // cannot finish in time
		Func: func(tx *Tx) error {
			ran = true
			return nil
		},
	})
	if res.State != AbortedDeadline || ran {
		t.Fatalf("state = %v ran = %v", res.State, ran)
	}
}

func TestDeadlinePassesMidTransaction(t *testing.T) {
	db := mustOpen(t, Config{})
	db.DefineView("x", Low)
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(20 * time.Millisecond),
		Func: func(tx *Tx) error {
			time.Sleep(40 * time.Millisecond)
			_, err := tx.Read("x") // read point detects the miss
			return err
		},
	})
	if res.State != AbortedDeadline || !errors.Is(res.Err, ErrDeadlineExceeded) {
		t.Fatalf("result = %+v", res)
	}
}

func TestCommitCheckCatchesLateFinish(t *testing.T) {
	db := mustOpen(t, Config{})
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(15 * time.Millisecond),
		Func: func(tx *Tx) error {
			time.Sleep(40 * time.Millisecond)
			return nil // never touched the DB, but finished late
		},
	})
	if res.State != AbortedDeadline {
		t.Fatalf("state = %v, want aborted-deadline", res.State)
	}
}

func TestExecNilFunc(t *testing.T) {
	db := mustOpen(t, Config{})
	if res := db.Exec(TxnSpec{}); res.State != Failed {
		t.Fatalf("state = %v", res.State)
	}
}

func TestExecAfterClose(t *testing.T) {
	db, _ := Open(Config{})
	db.Close()
	res := db.Exec(TxnSpec{Func: func(tx *Tx) error { return nil }})
	if res.State != Failed || !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("result = %+v", res)
	}
	if err := db.ApplyUpdate(Update{Object: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ApplyUpdate after close: %v", err)
	}
	if err := db.DefineView("x", Low); !errors.Is(err, ErrClosed) {
		t.Fatalf("DefineView after close: %v", err)
	}
}

func TestTxHandleInvalidOutsideFunc(t *testing.T) {
	db := mustOpen(t, Config{})
	db.DefineView("x", Low)
	var leaked *Tx
	db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			leaked = tx
			return nil
		},
	})
	if _, err := leaked.Read("x"); err == nil {
		t.Fatal("escaped Tx should be unusable")
	}
	if _, ok := leaked.Get("k"); ok {
		t.Fatal("escaped Get should fail")
	}
}

func TestStatsAccumulate(t *testing.T) {
	db := mustOpen(t, Config{Policy: TransactionsFirst})
	db.DefineView("x", Low)
	db.ApplyUpdate(Update{Object: "x", Value: 1})
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 1 })
	db.Exec(TxnSpec{
		Value:    3,
		Deadline: time.Now().Add(time.Second),
		Func:     func(tx *Tx) error { return nil },
	})
	s := db.Stats()
	if s.UpdatesReceived != 1 || s.UpdatesInstalled != 1 {
		t.Fatalf("update stats = %+v", s)
	}
	if s.TxnsSubmitted != 1 || s.TxnsCommitted != 1 || s.ValueCommitted != 3 {
		t.Fatalf("txn stats = %+v", s)
	}
}

func TestValueDensityOrdering(t *testing.T) {
	db := mustOpen(t, Config{Policy: TransactionsFirst})
	// Block the scheduler so both contenders queue up.
	gate := make(chan struct{})
	started := make(chan struct{})
	go db.Exec(TxnSpec{
		Value:    1,
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			close(started)
			<-gate
			return nil
		},
	})
	<-started

	order := make(chan string, 2)
	var wg sync.WaitGroup
	submit := func(name string, value float64, est time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.Exec(TxnSpec{
				Name:     name,
				Value:    value,
				Estimate: est,
				Deadline: time.Now().Add(2 * time.Second),
				Func: func(tx *Tx) error {
					order <- name
					return nil
				},
			})
		}()
	}
	submit("low", 1, 10*time.Millisecond)
	submit("high", 50, 10*time.Millisecond)
	// Give both submissions time to reach the queue, then release.
	time.Sleep(30 * time.Millisecond)
	close(gate)
	wg.Wait()
	if first := <-order; first != "high" {
		t.Fatalf("first txn = %s, want the higher value density", first)
	}
}

func TestPeekUnknown(t *testing.T) {
	db := mustOpen(t, Config{})
	if _, err := db.Peek("nope"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
}

// TestDBFieldsGroupedByWriter pins DB's grouping of its fields by
// writer. A store evicts its cache line from every other core, so a
// group keeps a line's distance from the fields others write or read on
// every operation. No two of the groups may share a line: producers
// write theirs on every offer, submitters on every Exec, the scheduler
// at every scheduling point, and every offer and submission reads the
// read-mostly group.
func TestDBFieldsGroupedByWriter(t *testing.T) {
	var db DB
	type field struct {
		name      string
		off, size uintptr
	}
	groups := []struct {
		name   string
		fields []field
	}{
		{"read-mostly", []field{
			{"cfg", unsafe.Offsetof(db.cfg), unsafe.Sizeof(db.cfg)},
			{"ingest", unsafe.Offsetof(db.ingest), unsafe.Sizeof(db.ingest)},
			{"txnCh", unsafe.Offsetof(db.txnCh), unsafe.Sizeof(db.txnCh)},
			{"defs", unsafe.Offsetof(db.defs), unsafe.Sizeof(db.defs)},
			{"seed", unsafe.Offsetof(db.seed), unsafe.Sizeof(db.seed)},
			{"closed", unsafe.Offsetof(db.closed), unsafe.Sizeof(db.closed)},
			{"replicated", unsafe.Offsetof(db.replicated), unsafe.Sizeof(db.replicated)},
		}},
		{"producers", []field{
			{"arrival", unsafe.Offsetof(db.arrival), unsafe.Sizeof(db.arrival)},
			{"dropped", unsafe.Offsetof(db.dropped), unsafe.Sizeof(db.dropped)},
			{"malformed", unsafe.Offsetof(db.malformed), unsafe.Sizeof(db.malformed)},
		}},
		{"submitters", []field{
			{"submitted", unsafe.Offsetof(db.submitted), unsafe.Sizeof(db.submitted)},
		}},
		{"scheduler", []field{
			{"mu", unsafe.Offsetof(db.mu), unsafe.Sizeof(db.mu)},
			{"stats", unsafe.Offsetof(db.stats), unsafe.Sizeof(db.stats)},
			{"pub", unsafe.Offsetof(db.pub), unsafe.Sizeof(db.pub)},
			{"queue", unsafe.Offsetof(db.queue), unsafe.Sizeof(db.queue)},
			{"ready", unsafe.Offsetof(db.ready), unsafe.Sizeof(db.ready)},
			{"due", unsafe.Offsetof(db.due), unsafe.Sizeof(db.due)},
			{"answered", unsafe.Offsetof(db.answered), unsafe.Sizeof(db.answered)},
		}},
	}
	for i, g := range groups {
		for _, h := range groups[i+1:] {
			for _, a := range g.fields {
				for _, b := range h.fields {
					lo, hi := a, b
					if hi.off < lo.off {
						lo, hi = hi, lo
					}
					if gap := int(hi.off) - int(lo.off+lo.size); gap < cacheLine {
						t.Errorf("%s field %s and %s field %s are %d bytes apart, under a cache line",
							g.name, a.name, h.name, b.name, gap)
					}
				}
			}
		}
	}
}
