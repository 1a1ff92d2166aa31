package strip

import (
	"errors"
	"testing"
	"time"
)

func TestMaxAgeStalenessWarn(t *testing.T) {
	clock := newFakeClock()
	db := mustOpen(t, Config{
		Policy:  TransactionsFirst,
		MaxAge:  time.Second,
		OnStale: Warn,
		Clock:   clock.Now,
	})
	db.DefineView("sensor", Low)
	// Never updated: infinitely old, hence stale under MA.
	res := db.Exec(TxnSpec{
		Value:    1,
		Deadline: clock.Now().Add(time.Hour),
		Func: func(tx *Tx) error {
			e, err := tx.Read("sensor")
			if err != nil {
				return err
			}
			if !e.Stale {
				t.Error("entry should be stale")
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	if !res.ReadStale || len(res.StaleReads) != 1 || res.StaleReads[0] != "sensor" {
		t.Fatalf("warn result = %+v", res)
	}
	if db.Stats().TxnsCommittedStale != 1 {
		t.Fatal("stale commit not counted")
	}
}

func TestMaxAgeFreshAfterUpdate(t *testing.T) {
	clock := newFakeClock()
	db := mustOpen(t, Config{
		Policy:  UpdatesFirst,
		MaxAge:  time.Second,
		OnStale: Abort,
		Clock:   clock.Now,
	})
	db.DefineView("sensor", Low)
	res := db.Exec(TxnSpec{
		Deadline: clock.Now().Add(time.Hour),
		Func: func(tx *Tx) error {
			// The update arrives mid-transaction; UpdatesFirst
			// installs it at the read point.
			db.ApplyUpdate(Update{Object: "sensor", Value: 20.5, Generated: clock.Now()})
			e, err := tx.Read("sensor")
			if err != nil {
				return err
			}
			if e.Value != 20.5 || e.Stale {
				t.Errorf("entry = %+v", e)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
}

func TestMaxAgeAbort(t *testing.T) {
	clock := newFakeClock()
	db := mustOpen(t, Config{
		Policy:  TransactionsFirst,
		MaxAge:  time.Second,
		OnStale: Abort,
		Clock:   clock.Now,
	})
	db.DefineView("sensor", Low)
	res := db.Exec(TxnSpec{
		Deadline: clock.Now().Add(time.Hour),
		Func: func(tx *Tx) error {
			_, err := tx.Read("sensor")
			return err
		},
	})
	if res.State != AbortedStale || !errors.Is(res.Err, ErrStaleRead) {
		t.Fatalf("result = %+v", res)
	}
	if db.Stats().TxnsAbortedStale != 1 {
		t.Fatal("stale abort not counted")
	}
}

func TestStaleAbortStickyEvenIfErrorSwallowed(t *testing.T) {
	clock := newFakeClock()
	db := mustOpen(t, Config{
		Policy:  TransactionsFirst,
		MaxAge:  time.Second,
		OnStale: Abort,
		Clock:   clock.Now,
	})
	db.DefineView("sensor", Low)
	res := db.Exec(TxnSpec{
		Deadline: clock.Now().Add(time.Hour),
		Func: func(tx *Tx) error {
			tx.Read("sensor") // stale; error ignored by the function
			return nil
		},
	})
	if res.State != AbortedStale {
		t.Fatalf("state = %v, the abort must stick", res.State)
	}
}

func TestUnappliedUpdateCriterion(t *testing.T) {
	// MaxAge zero selects UU: an object is stale only while an
	// update for it is queued.
	db := mustOpen(t, Config{Policy: TransactionsFirst, OnStale: Warn})
	db.DefineView("px", Low)
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			// Nothing pending: fresh even though never updated.
			e, err := tx.Read("px")
			if err != nil {
				return err
			}
			if e.Stale {
				t.Error("UU: untouched object should be fresh")
			}
			// Now an update arrives; TF leaves it queued, so the
			// object turns stale at the next read.
			db.ApplyUpdate(Update{Object: "px", Value: 2})
			e, err = tx.Read("px")
			if err != nil {
				return err
			}
			if !e.Stale {
				t.Error("UU: object with pending update should be stale")
			}
			if e.Value != 0 {
				t.Errorf("TF must not install mid-transaction: %v", e.Value)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	// Once idle, the pending update is installed.
	waitFor(t, time.Second, func() bool {
		e, _ := db.Peek("px")
		return e.Value == 2 && !e.Stale
	})
}

func TestOnDemandRefreshMidTransaction(t *testing.T) {
	db := mustOpen(t, Config{Policy: OnDemand, OnStale: Abort})
	db.DefineView("px", Low)
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			// Queue two updates; OD must apply the newest in-line
			// and discard the superseded one.
			now := time.Now()
			db.ApplyUpdate(Update{Object: "px", Value: 1, Generated: now.Add(-time.Millisecond)})
			db.ApplyUpdate(Update{Object: "px", Value: 2, Generated: now})
			e, err := tx.Read("px")
			if err != nil {
				return err
			}
			if e.Stale || e.Value != 2 {
				t.Errorf("entry = %+v, want fresh value 2", e)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	s := db.Stats()
	if s.UpdatesInstalled != 1 || s.UpdatesSkipped != 1 {
		t.Fatalf("installed=%d skipped=%d, want 1/1", s.UpdatesInstalled, s.UpdatesSkipped)
	}
}

func TestSplitUpdatesKeepsHighFresh(t *testing.T) {
	db := mustOpen(t, Config{Policy: SplitUpdates, OnStale: Warn})
	db.DefineView("hi", High)
	db.DefineView("lo", Low)
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			db.ApplyUpdate(Update{Object: "hi", Value: 5})
			db.ApplyUpdate(Update{Object: "lo", Value: 6})
			// The read point installs the high update only.
			e, err := tx.Read("hi")
			if err != nil {
				return err
			}
			if e.Stale || e.Value != 5 {
				t.Errorf("high entry = %+v, want fresh 5", e)
			}
			e, err = tx.Read("lo")
			if err != nil {
				return err
			}
			if !e.Stale || e.Value != 0 {
				t.Errorf("low entry = %+v, want stale old value", e)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
}

func TestMaxAgeExpiryDiscardsQueued(t *testing.T) {
	clock := newFakeClock()
	db := mustOpen(t, Config{
		Policy: TransactionsFirst,
		MaxAge: time.Second,
		Clock:  clock.Now,
	})
	db.DefineView("x", Low)
	// Hold the scheduler inside a transaction while an already-old
	// update arrives, then advance past its expiry.
	res := db.Exec(TxnSpec{
		Deadline: clock.Now().Add(time.Hour),
		Func: func(tx *Tx) error {
			db.ApplyUpdate(Update{Object: "x", Value: 1, Generated: clock.Now().Add(-900 * time.Millisecond)})
			if _, err := tx.Read("x"); err != nil { // receive the update
				return err
			}
			clock.Advance(500 * time.Millisecond) // now older than MaxAge
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesExpired == 1 })
	if got := db.Stats().UpdatesInstalled; got != 0 {
		t.Fatalf("installed = %d, expired update must not install", got)
	}
}

func TestCoalesceConfig(t *testing.T) {
	db := mustOpen(t, Config{Policy: TransactionsFirst, Coalesce: true})
	db.DefineView("x", Low)
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			now := time.Now()
			for i := 0; i < 5; i++ {
				db.ApplyUpdate(Update{Object: "x", Value: float64(i), Generated: now.Add(time.Duration(i))})
			}
			tx.Read("x") // receive: coalesced to one queued update
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	waitFor(t, time.Second, func() bool {
		e, _ := db.Peek("x")
		return e.Value == 4
	})
	s := db.Stats()
	if s.UpdatesInstalled != 1 {
		t.Fatalf("installed = %d, want 1 after coalescing", s.UpdatesInstalled)
	}
	if s.UpdatesSkipped != 4 {
		t.Fatalf("skipped = %d, want 4 coalesced away", s.UpdatesSkipped)
	}
}

func TestIngestBufferDrops(t *testing.T) {
	db := mustOpen(t, Config{Policy: TransactionsFirst, IngestBuffer: 1})
	db.DefineView("x", Low)
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			// The scheduler is busy running this function, so only
			// one arrival fits the buffer.
			for i := 0; i < 4; i++ {
				db.ApplyUpdate(Update{Object: "x", Value: float64(i)})
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	// The drops are counted by the time Exec returns, the receive only
	// once the scheduler has looked at the buffer: wait for the ledger.
	waitFor(t, time.Second, func() bool {
		s := db.Stats()
		return s.UpdatesDropped == 3 && s.UpdatesReceived == 1
	})
	if db.Stats().UpdatesReceived != 1 {
		t.Fatalf("received = %d, want 1", db.Stats().UpdatesReceived)
	}
}

func TestLIFOInstall(t *testing.T) {
	db := mustOpen(t, Config{Policy: TransactionsFirst, LIFO: true})
	db.DefineView("x", Low)
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			now := time.Now()
			db.ApplyUpdate(Update{Object: "x", Value: 1, Generated: now.Add(-2 * time.Millisecond)})
			db.ApplyUpdate(Update{Object: "x", Value: 2, Generated: now})
			tx.Read("x") // receive both
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	// LIFO installs the newest first; the older one is then skipped
	// by the worthiness check.
	waitFor(t, time.Second, func() bool {
		s := db.Stats()
		return s.UpdatesInstalled == 1 && s.UpdatesSkipped == 1
	})
	e, _ := db.Peek("x")
	if e.Value != 2 {
		t.Fatalf("value = %v, want 2", e.Value)
	}
}
