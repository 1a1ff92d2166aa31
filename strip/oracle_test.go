package strip

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/uqueue"
	"repro/internal/workload"
)

// The simulator as oracle: one scripted trace is replayed through
// internal/sched (simulated time, preemptive CPU) and through a
// stepped live DB (injected clock, cooperative read points), for each
// of the paper's four policies. Both run the same policy table and the
// same class queue, so they must install the same updates in the same
// order, give every update the same fate and every transaction the
// same outcome.
//
// The script (Delta = 0.3 s; objects 0,1 Low and 2,3 High) holds, by
// arrival time:
//
//	0.02-0.05  u1..u4   first value for every object, system idle
//	0.21, 0.22 u5, u6   obj0 out of order: u6 is older than u5 and must
//	                    be skipped as unworthy
//	0.30       t0       blocker, no reads, runs to 0.40
//	0.345-0.36 u7..u9   obj0 (already 95 ms old), obj2, obj1 arrive
//	                    behind t0
//	0.38       t1       reads obj1 and obj2 at ~0.55, runs to ~0.70:
//	                    under OD both are refreshed in-line from u9/u8;
//	                    where u7 is still queued at 0.70 it has expired
//	0.39       t2       cheap, due 0.75: infeasible once t1 is done
//	0.42       u10      obj3 (High) during t1: preempts under SU and UF
//	0.95       u11      obj0, idle
//	1.00       t3       blocker, runs to 1.10
//	1.02, 1.04 u12, u13 obj3 twice: OD installs u13 and discards u12
//	1.05       t4       reads obj3 and obj0 at ~1.15
//
// Two differences between the model and the engine are kept out of the
// script because they are not scheduling decisions: the simulator
// receives arrivals only at scheduling points, the engine also at read
// points (so no update arrives during the transaction that reads its
// object), and the engine's in-line refresh applies the newest queued
// update even when that one is itself older than MaxAge.
type oracleScript struct {
	params   model.Params
	queueCap int // Config.QueueCapacity; 0 for the default
	updates  []*model.Update
	txns     []*model.Txn
}

func newOracleScript() *oracleScript {
	p := model.DefaultParams()
	p.NLow, p.NHigh = 2, 2
	p.MaxAgeDelta = 0.3
	p.UpdateRate, p.TxnRate = 0, 0
	s := &oracleScript{params: p}
	for _, u := range []struct {
		obj      model.ObjectID
		gen, arr float64
	}{
		{0, 0.010, 0.020}, {1, 0.011, 0.030}, {2, 0.012, 0.040}, {3, 0.013, 0.050},
		{0, 0.200, 0.210}, {0, 0.150, 0.220},
		{0, 0.250, 0.345}, {2, 0.340, 0.350}, {1, 0.355, 0.360},
		{3, 0.410, 0.420},
		{0, 0.930, 0.950},
		{3, 1.010, 1.020}, {3, 1.030, 1.040},
	} {
		s.updates = append(s.updates, &model.Update{
			Seq: uint64(len(s.updates) + 1), Object: u.obj, Class: p.ObjectClass(u.obj),
			GenTime: u.gen, ArrivalTime: u.arr,
		})
	}
	for _, x := range []struct {
		arr, value, comp, slack float64
		reads                   []model.ObjectID
	}{
		{0.30, 1, 0.1, 1, nil},
		{0.38, 10, 0.3, 1, []model.ObjectID{1, 2}},
		{0.39, 1, 0.1, 0.26, nil},
		{1.00, 1, 0.1, 1, nil},
		{1.05, 10, 0.1, 1, []model.ObjectID{3, 0}},
	} {
		txn := &model.Txn{
			ID: uint64(len(s.txns) + 1), Value: x.value, ArrivalTime: x.arr,
			CompSeconds: x.comp, ReadSet: x.reads, PView: 0.5,
		}
		txn.Deadline = x.arr + s.estimate(txn) + x.slack
		s.txns = append(s.txns, txn)
	}
	return s
}

// estimate is the perfect execution-time estimate of §3.4.
func (s *oracleScript) estimate(txn *model.Txn) float64 {
	return workload.EstimateSeconds(&s.params, txn)
}

func (s *oracleScript) lookupSec() float64 { return s.params.Seconds(s.params.XLookup) }

// oracleOutcome is what both executions must agree on.
type oracleOutcome struct {
	Installs []string          // "(object, generation)" in install order
	Fates    map[uint64]string // update Seq -> installed | skipped | expired | evicted
	Txns     map[uint64]string // txn ID -> terminal state, "+stale" after a stale read
	Started  []uint64          // txn IDs in the order they first took the CPU
}

func (o *oracleOutcome) settle(u *model.Update, fate string) {
	if prev, ok := o.Fates[u.Seq]; ok {
		panic(fmt.Sprintf("update %d settled twice: %s, then %s", u.Seq, prev, fate))
	}
	o.Fates[u.Seq] = fate
	if fate == "installed" {
		o.Installs = append(o.Installs, fmt.Sprintf("(%d, %.3f)", u.Object, u.GenTime))
	}
}

func txnOutcome(state string, readStale bool) string {
	if readStale {
		return state + "+stale"
	}
	return state
}

func newOracleOutcome() *oracleOutcome {
	return &oracleOutcome{Fates: map[uint64]string{}, Txns: map[uint64]string{}}
}

// simTrace turns the simulator's trace stream into an outcome.
type simTrace struct {
	out   *oracleOutcome
	bySeq map[uint64]*model.Update
}

// The two executions' names for an update's fate and a transaction's
// terminal state, on one vocabulary.
var (
	simFate = map[sched.TraceKind]string{
		sched.TraceUpdateInstalled: "installed",
		sched.TraceUpdateSkipped:   "skipped",
		sched.TraceUpdateExpired:   "expired",
		sched.TraceUpdateDropped:   "evicted",
	}
	liveFate = map[settleCause]string{
		settleInstalled: "installed",
		settleSkipped:   "skipped",
		settleExpired:   "expired",
		settleEvicted:   "evicted",
	}
	simTxnState = map[model.TxnState]string{
		model.TxnCommittedState:  Committed.String(),
		model.TxnAbortedDeadline: AbortedDeadline.String(),
		model.TxnAbortedStale:    AbortedStale.String(),
	}
)

func (s simTrace) Trace(e sched.TraceEvent) {
	if e.Kind == sched.TraceTxnStarted {
		s.out.Started = append(s.out.Started, e.Txn)
	}
	if fate, ok := simFate[e.Kind]; ok {
		s.out.settle(s.bySeq[e.Seq], fate)
	}
}

func (s *oracleScript) simulate(t *testing.T, policy Policy) *oracleOutcome {
	out := newOracleOutcome()
	bySeq := map[uint64]*model.Update{}
	var updates []*model.Update
	for _, u := range s.updates {
		c := *u
		updates = append(updates, &c)
		bySeq[c.Seq] = &c
	}
	var txns []*model.Txn
	for _, x := range s.txns {
		c := *x
		txns = append(txns, &c)
	}
	_, err := sched.Replay(sched.Config{
		Params: s.params, Policy: policy, Seed: 1, Duration: 2,
		Tracer: simTrace{out: out, bySeq: bySeq},
	}, updates, txns)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	for _, x := range txns {
		out.Txns[x.ID] = txnOutcome(simTxnState[x.State], x.ReadStale)
	}
	return out
}

// liveRun replays the script through a stepped DB. Simulated second t
// is t0+t on the injected clock; a transaction body moves the clock
// through its computation and lookups, and every scripted arrival is
// delivered the moment the clock passes it — between steps when the
// scheduler is idle, from inside the running transaction otherwise.
type liveRun struct {
	t       *testing.T
	s       *oracleScript
	db      *DB
	clock   *fakeClock
	t0      time.Time
	now     float64
	updates []*model.Update // not yet delivered
	txns    []*model.Txn    // not yet delivered
	reqs    map[uint64]*txnReq
	started []uint64
}

func viewName(id model.ObjectID) string { return fmt.Sprintf("o%d", id) }

func (r *liveRun) at(t float64) time.Time {
	return r.t0.Add(time.Duration(t * float64(time.Second)))
}

// nextArrival returns the time of the earliest undelivered arrival.
func (r *liveRun) nextArrival() (float64, bool) {
	switch {
	case len(r.updates) > 0 && (len(r.txns) == 0 || r.updates[0].ArrivalTime <= r.txns[0].ArrivalTime):
		return r.updates[0].ArrivalTime, true
	case len(r.txns) > 0:
		return r.txns[0].ArrivalTime, true
	}
	return 0, false
}

func (r *liveRun) setClock(t float64) {
	r.clock.Advance(r.at(t).Sub(r.clock.Now()))
	r.now = t
}

// advanceTo moves the clock to t, delivering every arrival due on the
// way at its own instant.
func (r *liveRun) advanceTo(t float64) {
	for {
		next, ok := r.nextArrival()
		if !ok || next > t {
			break
		}
		r.setClock(next)
		if len(r.updates) > 0 && r.updates[0].ArrivalTime == next {
			u := r.updates[0]
			r.updates = r.updates[1:]
			if err := r.db.ApplyUpdate(Update{Object: viewName(u.Object), Generated: r.at(u.GenTime)}); err != nil {
				r.t.Fatalf("ApplyUpdate: %v", err)
			}
			continue
		}
		txn := r.txns[0]
		r.txns = r.txns[1:]
		req := &txnReq{
			Rank: uqueue.Rank{ID: txn.ID},
			spec: TxnSpec{
				Value:    txn.Value,
				Deadline: r.at(txn.Deadline),
				Estimate: time.Duration(r.s.estimate(txn) * float64(time.Second)),
				Func:     r.body(txn),
			},
			res:      make(chan Result, 1),
			enqueued: r.clock.Now(),
		}
		r.reqs[txn.ID] = req
		r.db.txnCh <- req
	}
	r.setClock(t)
}

// body executes a transaction the way the model does (§3.4): PView of
// the computation, a lookup and a staleness check per view read, the
// rest of the computation.
func (r *liveRun) body(txn *model.Txn) func(*Tx) error {
	return func(tx *Tx) error {
		r.started = append(r.started, txn.ID)
		r.advanceTo(r.now + txn.PView*txn.CompSeconds)
		for _, obj := range txn.ReadSet {
			r.advanceTo(r.now + r.s.lookupSec())
			if _, err := tx.Read(viewName(obj)); err != nil {
				return err
			}
		}
		r.advanceTo(r.now + (1-txn.PView)*txn.CompSeconds)
		return nil
	}
}

// runLive replays the script through a stepped DB whose scheduling
// points install runs of up to run updates: 1 is db.step, installRunLen
// is what db.loop does.
func (s *oracleScript) runLive(t *testing.T, policy Policy, run int) *oracleOutcome {
	out := newOracleOutcome()
	clock := newFakeClock()
	db := mustOpenStepped(t, Config{
		Policy:        policy,
		MaxAge:        time.Duration(s.params.MaxAgeDelta * float64(time.Second)),
		OnStale:       Warn,
		QueueCapacity: s.queueCap,
		Clock:         clock.Now,
	})
	db.onSettle = func(u *model.Update, cause settleCause) {
		// The engine numbers updates in arrival order, as the script
		// does, so Seq identifies the scripted update.
		out.settle(u, liveFate[cause])
	}
	for id := 0; id < s.params.NumObjects(); id++ {
		if err := db.DefineView(viewName(model.ObjectID(id)), s.params.ObjectClass(model.ObjectID(id))); err != nil {
			t.Fatal(err)
		}
	}
	r := &liveRun{
		t: t, s: s, db: db, clock: clock, t0: clock.Now(),
		updates: s.updates, txns: s.txns, reqs: map[uint64]*txnReq{},
	}
	for {
		for db.intake(); db.act(run); db.intake() {
		}
		next, ok := r.nextArrival()
		if !ok {
			break
		}
		r.advanceTo(next)
	}
	out.Started = r.started
	for id, req := range r.reqs {
		select {
		case res := <-req.res:
			out.Txns[id] = txnOutcome(res.State.String(), res.ReadStale)
		default:
			t.Errorf("txn %d never resolved", id)
		}
	}
	for _, u := range s.updates {
		if out.Fates[u.Seq] == "" {
			t.Errorf("update %d (obj %d) never left the live queue", u.Seq, u.Object)
		}
	}
	return out
}

func TestSimulatorIsOracleForLiveScheduler(t *testing.T) {
	s := newOracleScript()
	seen := map[string]bool{}
	for _, policy := range []Policy{UpdatesFirst, TransactionsFirst, SplitUpdates, OnDemand} {
		t.Run(policy.String(), func(t *testing.T) {
			want := s.simulate(t, policy)
			got := s.runLive(t, policy, 1)
			if !reflect.DeepEqual(got.Installs, want.Installs) {
				t.Errorf("install order\n live %v\n sim  %v", got.Installs, want.Installs)
			}
			if !reflect.DeepEqual(got.Fates, want.Fates) {
				t.Errorf("update fates\n live %v\n sim  %v", got.Fates, want.Fates)
			}
			if !reflect.DeepEqual(got.Txns, want.Txns) {
				t.Errorf("transaction outcomes\n live %v\n sim  %v", got.Txns, want.Txns)
			}
			for _, f := range want.Fates {
				seen[f] = true
			}
			for _, o := range want.Txns {
				seen[o] = true
			}
			if policy == OnDemand && (want.Fates[12] != "skipped" || want.Fates[13] != "installed") {
				t.Errorf("OD refresh should install u13 and discard u12, got %v", want.Fates)
			}
		})
	}
	// The script must keep exercising what it was written to exercise.
	for _, f := range []string{"installed", "skipped", "expired",
		"committed", "committed+stale", "aborted-deadline"} {
		if !seen[f] {
			t.Errorf("no policy produced a %q outcome; the script lost a case", f)
		}
	}
}

// scriptTxn is a transaction of a queue script: its arrival, value,
// computation, slack and reads.
type scriptTxn struct {
	arr, value, comp, slack float64
	reads                   []model.ObjectID
}

// newQueueScript builds a script whose transactions pile up behind a
// blocker, so that when it ends at 0.30 they are ready at once and the
// ready queue alone decides their order. Objects 0,1 (Low) and 2,3
// (High) get a first value at 0.02-0.05 and obj1 and obj2 a second one
// while the blocker runs; the blocker, transaction 1, arrives at 0.10,
// reads nothing and computes 0.2 s; txns follow it as transactions 2...
func newQueueScript(txns ...scriptTxn) *oracleScript {
	p := model.DefaultParams()
	p.NLow, p.NHigh = 2, 2
	p.MaxAgeDelta = 0.3
	p.UpdateRate, p.TxnRate = 0, 0
	s := &oracleScript{params: p}
	for _, u := range []struct {
		obj      model.ObjectID
		gen, arr float64
	}{
		{0, 0.010, 0.020}, {1, 0.011, 0.030}, {2, 0.012, 0.040}, {3, 0.013, 0.050},
		{1, 0.195, 0.205}, {2, 0.200, 0.215},
	} {
		s.updates = append(s.updates, &model.Update{
			Seq: uint64(len(s.updates) + 1), Object: u.obj, Class: p.ObjectClass(u.obj),
			GenTime: u.gen, ArrivalTime: u.arr,
		})
	}
	for _, x := range append([]scriptTxn{{0.10, 1, 0.2, 1, nil}}, txns...) {
		txn := &model.Txn{
			ID: uint64(len(s.txns) + 1), Value: x.value, ArrivalTime: x.arr,
			CompSeconds: x.comp, ReadSet: x.reads, PView: 0.5,
		}
		txn.Deadline = x.arr + s.estimate(txn) + x.slack
		s.txns = append(s.txns, txn)
	}
	return s
}

// newManyReadyScript queues fourteen transactions behind the blocker.
// Six have density 100, with estimates of 0.02, 0.04 and 0.05 s, so
// IDs order them; one of those (8) sees its deadline pass in the queue
// and one (12) fails the feasible-deadline test once the ties ahead of
// it have run; two read an object updated while they waited.
func newManyReadyScript() *oracleScript {
	return newQueueScript(
		scriptTxn{0.110, 2, 0.02, 1, nil},                    // 2: 100
		scriptTxn{0.120, 2, 0.02, 1, nil},                    // 3: 100
		scriptTxn{0.130, 4, 0.04, 1, nil},                    // 4: 100
		scriptTxn{0.140, 1, 0.02, 1, nil},                    // 5: 50
		scriptTxn{0.150, 3, 0.01, 1, nil},                    // 6: 300
		scriptTxn{0.160, 2, 0.02, 1, []model.ObjectID{1}},    // 7: just under 100
		scriptTxn{0.170, 5, 0.05, 0.045, nil},                // 8: 100, due 0.265
		scriptTxn{0.180, 2, 0.02, 1, nil},                    // 9: 100
		scriptTxn{0.190, 1, 0.01, 1, []model.ObjectID{2, 3}}, // 10
		scriptTxn{0.200, 6, 0.03, 1, nil},                    // 11: 200
		scriptTxn{0.210, 2, 0.02, 0.195, nil},                // 12: 100, due 0.425
		scriptTxn{0.220, 1, 0.05, 1, nil},                    // 13: 20
		scriptTxn{0.230, 9, 0.03, 1, nil},                    // 14: 300
		scriptTxn{0.240, 1, 0.01, 1, []model.ObjectID{0}},    // 15
	)
}

// newNoEstimateScript queues transactions with no work to estimate —
// no computation, no reads — among estimated ones. The model ranks an
// estimate of zero at value·10¹², so they run first, the larger value
// first and equal values in ID order; 2 and 5 are due at 0.37 and 0.35,
// shortly after the blocker, and commit only because of that rule (a
// ranking by value per second of remaining slack put them behind 3 and
// 4 and past their deadlines). 7 and 8 share a latest start, 0.60.
func newNoEstimateScript() *oracleScript {
	return newQueueScript(
		scriptTxn{0.120, 1, 0, 0.25, nil},                    // 2: due 0.37
		scriptTxn{0.130, 10, 0.05, 1, nil},                   // 3: 200
		scriptTxn{0.140, 10, 0.05, 1, nil},                   // 4: 200
		scriptTxn{0.150, 1, 0, 0.2, nil},                     // 5: due 0.35
		scriptTxn{0.160, 3, 0, 1, nil},                       // 6: 3·10¹²
		scriptTxn{0.170, 1, 0, 0.43, nil},                    // 7: due 0.60
		scriptTxn{0.180, 1, 0.05, 0.42, []model.ObjectID{1}}, // 8: latest start 0.60
		scriptTxn{0.190, 2, 0.02, 1, nil},                    // 9: 100
	)
}

// TestReadyRankingMatchesSimulator runs the queue scripts through the
// simulator's controller and the stepped engine, with runs of one and
// of installRunLen: both must start the transactions in the same order
// and agree on every outcome.
func TestReadyRankingMatchesSimulator(t *testing.T) {
	for name, s := range map[string]*oracleScript{
		"many-ready":  newManyReadyScript(),
		"no-estimate": newNoEstimateScript(),
	} {
		for _, policy := range []Policy{UpdatesFirst, TransactionsFirst, SplitUpdates, OnDemand} {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				want := s.simulate(t, policy)
				if len(want.Started) < len(s.txns)-2 {
					t.Errorf("the simulator started %v: the script lost its queue", want.Started)
				}
				for _, run := range []int{1, installRunLen} {
					got := s.runLive(t, policy, run)
					if !reflect.DeepEqual(got.Started, want.Started) {
						t.Errorf("run %d: start order\n live %v\n sim  %v", run, got.Started, want.Started)
					}
					if !reflect.DeepEqual(got.Installs, want.Installs) {
						t.Errorf("run %d: install order\n live %v\n sim  %v", run, got.Installs, want.Installs)
					}
					if !reflect.DeepEqual(got.Fates, want.Fates) {
						t.Errorf("run %d: update fates\n live %v\n sim  %v", run, got.Fates, want.Fates)
					}
					if !reflect.DeepEqual(got.Txns, want.Txns) {
						t.Errorf("run %d: transaction outcomes\n live %v\n sim  %v", run, got.Txns, want.Txns)
					}
				}
			})
		}
	}
}
