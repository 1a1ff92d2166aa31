package strip

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/strip/obs"
)

// Install runs (installRun): the scheduler goroutine installs up to
// installRunLen updates per scheduling point under one critical
// section, where step installs one. These tests hold the run to what
// single-stepping does: the same schedule, hooks that see their own
// update before the next one lands, and transactions that do not wait
// for a burst to finish.

// newRandomScript builds a seeded trace with everything the scheduler
// sheds and orders: both classes, bursts of arrivals whose generations
// are out of order (an exponential network delay, so a few arrive
// already past MaxAge and others lose the worthiness check), a queue
// small enough to overflow while a transaction runs, and transactions
// with reads, values and deadlines of all kinds.
func newRandomScript(seed int64) *oracleScript {
	p := model.DefaultParams()
	p.NLow, p.NHigh = 6, 3
	p.MaxAgeDelta = 0.3
	p.UpdateRate, p.TxnRate = 0, 0
	s := &oracleScript{params: p, queueCap: 24}
	r := rand.New(rand.NewSource(seed))
	now := 1.0
	for i := 0; i < 600; i++ {
		if r.Intn(25) == 0 {
			now += r.Float64() * 0.2
		} else {
			now += r.Float64() * 0.002
		}
		obj := model.ObjectID(r.Intn(p.NumObjects()))
		s.updates = append(s.updates, &model.Update{
			Seq: uint64(i + 1), Object: obj, Class: p.ObjectClass(obj),
			GenTime: now - r.ExpFloat64()*0.08, ArrivalTime: now,
		})
	}
	end := now
	now = 1.0
	for i := 0; now < end; i++ {
		now += r.Float64() * 2 * (end - 1) / 40
		txn := &model.Txn{
			ID: uint64(i + 1), Value: 1 + 9*r.Float64(), ArrivalTime: now,
			CompSeconds: 0.005 + 0.1*r.Float64(), PView: 0.5,
		}
		for n := r.Intn(4); n > 0; n-- {
			txn.ReadSet = append(txn.ReadSet, model.ObjectID(r.Intn(p.NumObjects())))
		}
		txn.Deadline = now + s.estimate(txn) + 0.02 + 0.5*r.Float64()
		s.txns = append(s.txns, txn)
	}
	return s
}

// TestRunLengthDoesNotChangeTheSchedule replays the oracle's scripted
// trace and a randomized one through a stepped DB twice per policy —
// one install per scheduling point, and runs of installRunLen as the
// scheduler goroutine does — and requires the same install order, the
// same fate for every update and the same outcome for every
// transaction.
func TestRunLengthDoesNotChangeTheSchedule(t *testing.T) {
	scripts := map[string]*oracleScript{
		"scripted": newOracleScript(),
		"random-1": newRandomScript(1),
		"random-2": newRandomScript(2),
	}
	fates := map[string]bool{}
	for name, s := range scripts {
		for _, policy := range []Policy{UpdatesFirst, TransactionsFirst, SplitUpdates, OnDemand} {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				stepped := s.runLive(t, policy, 1)
				runs := s.runLive(t, policy, installRunLen)
				if !reflect.DeepEqual(runs.Installs, stepped.Installs) {
					t.Errorf("install order\n runs    %v\n stepped %v", runs.Installs, stepped.Installs)
				}
				if !reflect.DeepEqual(runs.Fates, stepped.Fates) {
					t.Errorf("update fates\n runs    %v\n stepped %v", runs.Fates, stepped.Fates)
				}
				if !reflect.DeepEqual(runs.Txns, stepped.Txns) {
					t.Errorf("transaction outcomes\n runs    %v\n stepped %v", runs.Txns, stepped.Txns)
				}
				for _, f := range stepped.Fates {
					fates[f] = true
				}
				for _, o := range stepped.Txns {
					fates[o] = true
				}
			})
		}
	}
	for _, f := range []string{"installed", "skipped", "expired", "evicted",
		"committed", "committed+stale", "aborted-deadline"} {
		if !fates[f] {
			t.Errorf("no script produced a %q outcome; the traces lost a case", f)
		}
	}
}

// burstDB is a stepped UU database with n Low views v0..v(n-1) and one
// update queued for each, generations in view order, already received.
func burstDB(t *testing.T, policy Policy, n int) (*DB, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	db := mustOpenStepped(t, Config{Policy: policy, Clock: clock.Now})
	for i := 0; i < n; i++ {
		if err := db.DefineView(fmt.Sprintf("v%d", i), Low); err != nil {
			t.Fatal(err)
		}
	}
	base := clock.Now()
	for i := 0; i < n; i++ {
		err := db.ApplyUpdate(Update{
			Object: fmt.Sprintf("v%d", i), Value: float64(100 + i),
			Generated: base.Add(time.Duration(i+1) * time.Millisecond),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Second)
	db.intake()
	return db, clock
}

// TestHooksFireBeforeTheNextInstall puts an OnInstall trigger and a
// Watch subscription on two views in the middle of a burst. The run
// stops at each: the trigger runs outside db.mu and reads its own
// update back through Peek, the watcher's entry is in its channel with
// its own value, and only then does the next update install.
func TestHooksFireBeforeTheNextInstall(t *testing.T) {
	db, _ := burstDB(t, UpdatesFirst, 20)
	var log []string
	db.onSettle = func(u *model.Update, cause settleCause) {
		log = append(log, fmt.Sprintf("install v%d", u.Object))
	}
	if err := db.OnInstall("v5", func(e Entry) {
		peek, err := db.Peek("v5")
		if err != nil {
			t.Error(err)
		}
		log = append(log, fmt.Sprintf("trigger %s=%v peek=%v", e.Object, e.Value, peek.Value))
	}); err != nil {
		t.Fatal(err)
	}
	watch, cancel, err := db.Watch("v7", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	var runs []int
	for {
		before := len(log)
		if !db.act(installRunLen) {
			break
		}
		installs := 0
		for _, line := range log[before:] {
			if line[:7] == "install" {
				installs++
			}
		}
		runs = append(runs, installs)
		if len(runs) == 2 {
			// The run that installed v7 ended there, with the entry
			// already delivered.
			select {
			case e := <-watch:
				log = append(log, fmt.Sprintf("watch %s=%v", e.Object, e.Value))
			default:
				t.Fatal("v7 installed and the run over, but nothing delivered to its watcher")
			}
		}
		db.intake()
	}

	var want []string
	for i := 0; i < 20; i++ {
		want = append(want, fmt.Sprintf("install v%d", i))
		switch i {
		case 5:
			want = append(want, "trigger v5=105 peek=105")
		case 7:
			want = append(want, "watch v7=107")
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("events\n got  %v\n want %v", log, want)
	}
	if !reflect.DeepEqual(runs, []int{6, 2, 12}) {
		t.Errorf("installs per run = %v, want [6 2 12]: a run ends at the first install with something to fire", runs)
	}
}

// TestSubmissionEndsTheRun: a transaction submitted while a burst is
// being installed does not wait for the burst. The run ends at the
// install during which the submission arrived, and the next scheduling
// point starts the transaction.
func TestSubmissionEndsTheRun(t *testing.T) {
	db, clock := burstDB(t, TransactionsFirst, 100)
	installed := 0
	startedAfter := -1
	req := &txnReq{
		spec: TxnSpec{Deadline: clock.Now().Add(time.Hour), Func: func(*Tx) error {
			startedAfter = installed
			return nil
		}},
		res: make(chan Result, 1),
	}
	db.onSettle = func(*model.Update, settleCause) {
		installed++
		if installed == 10 {
			db.txnCh <- req
		}
	}
	if !db.act(installRunLen) || installed != 10 {
		t.Fatalf("the run installed %d updates, want it to end at the 10th, where the transaction was submitted", installed)
	}
	db.intake()
	if !db.act(installRunLen) || startedAfter != 10 {
		t.Fatalf("transaction started after %d installs, want 10: the scheduling point after the run", startedAfter)
	}
	if res := <-req.res; !res.Committed() {
		t.Errorf("transaction: %+v", res)
	}
	for db.intake(); db.act(installRunLen); db.intake() {
	}
	s := db.Stats()
	if s.UpdatesInstalled != 100 || !ledgerBalanced(s) {
		t.Errorf("stats = %+v", s)
	}
	// Runs of 10, 64 and 26 and no per-install clock reading: the
	// install stage still has one observation per installed update.
	if got := db.obs.stage[obs.StageInstall].Count(); got != s.UpdatesInstalled {
		t.Errorf("strip_pipeline_install_seconds has %d observations for %d installs", got, s.UpdatesInstalled)
	}
}

// TestReadyTransactionKeepsRunsToOneInstall: under UpdatesFirst the
// table installs ahead of a ready transaction, but each install is then
// its own scheduling point, so the transaction's deadline is examined
// between any two of them.
func TestReadyTransactionKeepsRunsToOneInstall(t *testing.T) {
	db, clock := burstDB(t, UpdatesFirst, 10)
	req := &txnReq{
		spec: TxnSpec{Deadline: clock.Now().Add(time.Minute), Func: func(*Tx) error { return nil }},
		res:  make(chan Result, 1),
	}
	db.txnCh <- req
	db.intake()
	for want := uint64(1); want <= 3; want++ {
		if !db.act(installRunLen) {
			t.Fatal("nothing to do")
		}
		if got := db.Stats().UpdatesInstalled; got != want {
			t.Fatalf("after %d scheduling points %d updates are installed", want, got)
		}
	}
	// Its deadline passes: the very next scheduling point reaps it.
	clock.Advance(time.Hour)
	db.intake()
	if res := <-req.res; res.State != AbortedDeadline {
		t.Errorf("transaction: %+v, want AbortedDeadline", res)
	}
}
