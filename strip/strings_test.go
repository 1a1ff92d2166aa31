package strip

import (
	"testing"
	"time"
)

func TestPublicStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{UpdatesFirst.String(), "UF"},
		{TransactionsFirst.String(), "TF"},
		{SplitUpdates.String(), "SU"},
		{OnDemand.String(), "OD"},
		{Policy(99).String(), "Policy(99)"},
		{Low.String(), "low"},
		{High.String(), "high"},
		{Ignore.String(), "ignore"},
		{Warn.String(), "warn"},
		{Abort.String(), "abort"},
		{Committed.String(), "committed"},
		{AbortedDeadline.String(), "aborted-deadline"},
		{AbortedStale.String(), "aborted-stale"},
		{Failed.String(), "failed"},
		{State(99).String(), "State(99)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestTxDeadlineAndRemaining(t *testing.T) {
	clock := newFakeClock()
	db := mustOpen(t, Config{Clock: clock.Now})
	deadline := clock.Now().Add(time.Minute)
	res := db.Exec(TxnSpec{
		Deadline: deadline,
		Func: func(tx *Tx) error {
			if !tx.Deadline().Equal(deadline) {
				t.Errorf("Deadline = %v", tx.Deadline())
			}
			if got := tx.Remaining(); got != time.Minute {
				t.Errorf("Remaining = %v", got)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
}

func TestResultCommittedHelper(t *testing.T) {
	if (Result{State: Committed}).Committed() != true {
		t.Fatal("Committed state should report committed")
	}
	for _, s := range []State{AbortedDeadline, AbortedStale, Failed} {
		if (Result{State: s}).Committed() {
			t.Fatalf("state %v should not report committed", s)
		}
	}
}

func TestReadAsOfBeforeAndAfterState(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst, HistoryDepth: 4})
	db.DefineView("x", Low)
	// Escaped handle: ReadAsOf must fail like other Tx methods.
	var leaked *Tx
	db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			leaked = tx
			return nil
		},
	})
	if _, err := leaked.ReadAsOf("x", time.Now()); err == nil {
		t.Fatal("escaped ReadAsOf should fail")
	}
	// Unknown object inside a live transaction.
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			if _, err := tx.ReadAsOf("ghost", time.Now()); err == nil {
				t.Error("unknown object should fail")
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
}

func TestSplitUpdatesLowDrainWhenIdle(t *testing.T) {
	// Exercise the SU idle path: a low-importance update installs once
	// nothing else is runnable (the policy table's InstallLow answer).
	db := mustOpen(t, Config{Policy: SplitUpdates})
	db.DefineView("lo", Low)
	db.ApplyUpdate(Update{Object: "lo", Value: 3})
	waitFor(t, time.Second, func() bool {
		e, _ := db.Peek("lo")
		return e.Value == 3
	})
}

func TestHopelessTxnReapedBehindBlocker(t *testing.T) {
	// A transaction that turns hopeless while queued behind a running
	// blocker is reaped at the scheduling point after the blocker.
	db := mustOpen(t, Config{Policy: TransactionsFirst})
	gate := make(chan struct{})
	started := make(chan struct{})
	go db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			close(started)
			<-gate
			return nil
		},
	})
	<-started
	resCh := make(chan Result, 1)
	go func() {
		resCh <- db.Exec(TxnSpec{
			Deadline: time.Now().Add(30 * time.Millisecond),
			Estimate: time.Minute, // hopeless: feasibility abort
			Func:     func(tx *Tx) error { return nil },
		})
	}()
	// Release the blocker after the second txn is queued.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	select {
	case res := <-resCh:
		if res.State != AbortedDeadline {
			t.Fatalf("state = %v", res.State)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued hopeless txn never resolved")
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{Policy: Policy(42)},
		{OnStale: StaleAction(42)},
		{MaxAge: -time.Second},
		{HistoryDepth: -1},
	}
	for i, cfg := range cases {
		if _, err := Open(cfg); err == nil {
			t.Errorf("case %d: Open accepted invalid config %+v", i, cfg)
		}
	}
}
