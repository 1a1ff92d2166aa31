package sched

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

// harness wires a controller to a simulator so tests can inject
// hand-built updates and transactions at exact instants.
type harness struct {
	s   *sim.Simulator
	c   *Controller
	trk trackerWithGen
	col *metrics.Collector
	p   *model.Params
	seq uint64
}

func newHarness(policy Policy, mutate func(*model.Params)) *harness {
	p := model.DefaultParams()
	p.UpdateRate = 0 // tests inject arrivals explicitly
	p.TxnRate = 0
	if mutate != nil {
		mutate(&p)
	}
	s := sim.New()
	trk := metrics.NewTracker(&p).(trackerWithGen)
	col := metrics.NewCollector(&p)
	return &harness{
		s:   s,
		c:   newController(s, &p, policy, trk, col, 99),
		trk: trk,
		col: col,
		p:   &p,
	}
}

// update injects an update arriving at the given time carrying gen.
func (h *harness) update(at float64, obj model.ObjectID, gen float64) *model.Update {
	h.seq++
	u := &model.Update{
		Seq:         h.seq,
		Object:      obj,
		Class:       h.p.ObjectClass(obj),
		GenTime:     gen,
		ArrivalTime: at,
	}
	h.s.At(at, func() { h.c.onUpdateArrival(u) })
	return u
}

// txn injects a transaction with explicit shape. Slack is the margin
// beyond the perfect estimate.
func (h *harness) txn(at float64, value, comp, slack float64, reads ...model.ObjectID) *model.Txn {
	h.seq++
	t := &model.Txn{
		ID:          h.seq,
		Class:       model.Low,
		Value:       value,
		ArrivalTime: at,
		CompSeconds: comp,
		ReadSet:     reads,
		PView:       h.p.PView,
	}
	t.Deadline = at + estimateSeconds(h.p, t) + slack
	h.s.At(at, func() { h.c.onTxnArrival(t) })
	return t
}

// run finishes the simulation at end and returns the metrics.
func (h *harness) run(end float64) metrics.Result {
	h.s.Run(end)
	h.c.finish(end)
	h.trk.Finish(end)
	h.col.Finish(end)
	return h.col.Result(h.trk)
}

const installSec = 24000.0 / 50e6 // xlookup+xupdate at baseline ips
const lookupSec = 4000.0 / 50e6

func TestUFPreemptsRunningTransaction(t *testing.T) {
	h := newHarness(UF, nil)
	txn := h.txn(0, 1, 0.1, 1.0)
	h.update(0.05, 7, 0.04)
	r := h.run(1)
	if txn.State != model.TxnCommittedState {
		t.Fatalf("txn state = %v", txn.State)
	}
	// The install (0.48 ms) delays the commit past 0.1.
	want := 0.1 + installSec
	if math.Abs(txn.FinishTime-want) > 1e-9 {
		t.Fatalf("commit at %v, want %v (preempted by install)", txn.FinishTime, want)
	}
	if r.UpdatesInstalled != 1 {
		t.Fatalf("installed = %d", r.UpdatesInstalled)
	}
}

func TestTFDoesNotPreempt(t *testing.T) {
	h := newHarness(TF, nil)
	txn := h.txn(0, 1, 0.1, 1.0)
	u := h.update(0.05, 7, 0.04)
	h.run(1)
	if math.Abs(txn.FinishTime-0.1) > 1e-9 {
		t.Fatalf("commit at %v, want exactly 0.1 (no preemption)", txn.FinishTime)
	}
	// The update is installed right after, once the system is idle.
	if got := h.trk.GenTime(u.Object); got != 0.04 {
		t.Fatalf("object generation = %v, update not installed", got)
	}
}

func TestTFTransactionWaitsForRunningInstall(t *testing.T) {
	h := newHarness(TF, nil)
	h.update(0.001, 7, 0.0005) // installs immediately (idle)
	txn := h.txn(0.001+installSec/2, 1, 0.1, 1.0)
	h.run(1)
	want := 0.001 + installSec + 0.1 // waits for the install to finish
	if math.Abs(txn.FinishTime-want) > 1e-9 {
		t.Fatalf("commit at %v, want %v (no update preemption)", txn.FinishTime, want)
	}
}

func TestSUSplitsByImportance(t *testing.T) {
	// High-importance update preempts; low-importance waits.
	h := newHarness(SU, nil)
	txnA := h.txn(0, 1, 0.1, 1.0)
	h.update(0.05, 600, 0.04) // high partition (>= NLow=500)
	h.run(0.5)
	if math.Abs(txnA.FinishTime-(0.1+installSec)) > 1e-9 {
		t.Fatalf("high update should preempt: commit at %v", txnA.FinishTime)
	}

	h2 := newHarness(SU, nil)
	txnB := h2.txn(0, 1, 0.1, 1.0)
	u := h2.update(0.05, 7, 0.04) // low partition
	h2.run(0.5)
	if math.Abs(txnB.FinishTime-0.1) > 1e-9 {
		t.Fatalf("low update should not preempt: commit at %v", txnB.FinishTime)
	}
	if got := h2.trk.GenTime(u.Object); got != 0.04 {
		t.Fatal("low update should install once idle")
	}
}

func TestWorthinessSkipsStaleGeneration(t *testing.T) {
	// Newer generation arrives first (out-of-order network): the
	// second update is skipped by the worthiness check.
	h := newHarness(TF, nil)
	h.update(0.1, 7, 0.09)
	h.update(0.2, 7, 0.03) // older generation
	r := h.run(1)
	if r.UpdatesInstalled != 1 || r.UpdatesSkippedUnworthy != 1 {
		t.Fatalf("installed=%d skipped=%d, want 1/1",
			r.UpdatesInstalled, r.UpdatesSkippedUnworthy)
	}
	if got := h.trk.GenTime(7); got != 0.09 {
		t.Fatalf("generation = %v, want 0.09", got)
	}
}

func TestFirmDeadlineAbortsMidRun(t *testing.T) {
	h := newHarness(TF, func(p *model.Params) { p.FeasibleDeadline = false })
	txn := h.txn(0, 1, 1.0, 0)
	txn.Deadline = 0.5 // will fire mid-execution
	r := h.run(2)
	if txn.State != model.TxnAbortedDeadline {
		t.Fatalf("state = %v, want aborted-deadline", txn.State)
	}
	if math.Abs(txn.FinishTime-0.5) > 1e-9 {
		t.Fatalf("aborted at %v, want 0.5", txn.FinishTime)
	}
	// The wasted CPU is still charged to transactions.
	if math.Abs(r.RhoTxn-0.25) > 1e-9 { // 0.5s of 2s
		t.Fatalf("rho_t = %v, want 0.25", r.RhoTxn)
	}
}

func TestFeasibleDeadlineAbortsBeforeStart(t *testing.T) {
	h := newHarness(TF, nil)
	txn := h.txn(0, 1, 1.0, 0)
	txn.Deadline = 0.5 // estimate is 1.0 > 0.5: hopeless
	r := h.run(2)
	if txn.State != model.TxnAbortedDeadline {
		t.Fatalf("state = %v", txn.State)
	}
	if txn.FinishTime != 0 {
		t.Fatalf("aborted at %v, want immediately at arrival", txn.FinishTime)
	}
	if r.RhoTxn != 0 {
		t.Fatalf("rho_t = %v, hopeless txn should cost nothing", r.RhoTxn)
	}
}

func TestValueDensityOrdering(t *testing.T) {
	h := newHarness(TF, nil)
	h.txn(0, 1, 0.1, 2.0) // occupies CPU [0, 0.1]
	lo := h.txn(0.01, 1, 0.1, 2.0)
	hi := h.txn(0.02, 5, 0.1, 2.0)
	h.run(1)
	if !(hi.FinishTime < lo.FinishTime) {
		t.Fatalf("high-density txn finished at %v, after low-density at %v",
			hi.FinishTime, lo.FinishTime)
	}
}

func TestStaleReadRecordedWithoutAbort(t *testing.T) {
	h := newHarness(TF, nil)
	// Object 7 was never updated: stale after Delta (7s).
	txn := h.txn(8, 1, 0.1, 1.0, 7)
	r := h.run(10)
	if txn.State != model.TxnCommittedState {
		t.Fatalf("state = %v", txn.State)
	}
	if !txn.ReadStale {
		t.Fatal("stale read not recorded")
	}
	if r.PSuccess != 0 || r.PSuccessGivenNonTardy != 0 {
		t.Fatalf("psuccess = %v, want 0 for a stale commit", r.PSuccess)
	}
}

func TestStaleAbort(t *testing.T) {
	h := newHarness(TF, func(p *model.Params) { p.OnStale = model.StaleAbort })
	txn := h.txn(8, 1, 0.1, 1.0, 7)
	r := h.run(10)
	if txn.State != model.TxnAbortedStale {
		t.Fatalf("state = %v, want aborted-stale", txn.State)
	}
	if r.TxnsAbortedStale != 1 {
		t.Fatalf("aborted-stale count = %d", r.TxnsAbortedStale)
	}
	// Aborted after the first lookup: CPU spent = lookup only.
	if math.Abs(txn.FinishTime-(8+lookupSec)) > 1e-9 {
		t.Fatalf("aborted at %v", txn.FinishTime)
	}
}

func TestODRefreshesFromQueue(t *testing.T) {
	h := newHarness(OD, nil)
	// Keep the CPU busy so the update is queued, not installed.
	h.txn(7.4, 1, 0.2, 2.0)
	h.update(7.5, 7, 7.45)
	reader := h.txn(7.55, 1, 0.1, 2.0, 7)
	r := h.run(10)
	if reader.State != model.TxnCommittedState {
		t.Fatalf("reader state = %v", reader.State)
	}
	if reader.ReadStale {
		t.Fatal("OD should have refreshed the object before the read")
	}
	if r.UpdatesInstalled != 1 {
		t.Fatalf("installed = %d, want the in-line apply", r.UpdatesInstalled)
	}
	if got := h.trk.GenTime(7); got != 7.45 {
		t.Fatalf("generation = %v, want 7.45", got)
	}
}

func TestODFallsBackToStaleWhenQueueEmpty(t *testing.T) {
	h := newHarness(OD, nil)
	reader := h.txn(8, 1, 0.1, 1.0, 7)
	h.run(10)
	if !reader.ReadStale {
		t.Fatal("nothing to refresh from: read should be stale")
	}
	if reader.State != model.TxnCommittedState {
		t.Fatalf("state = %v", reader.State)
	}
}

func TestODAbortOnlyWhenRefreshImpossible(t *testing.T) {
	h := newHarness(OD, func(p *model.Params) { p.OnStale = model.StaleAbort })
	h.txn(7.4, 1, 0.2, 2.0)
	h.update(7.5, 7, 7.45)
	refreshable := h.txn(7.55, 1, 0.1, 2.0, 7)
	hopeless := h.txn(8.5, 1, 0.1, 2.0, 8) // object 8 has no queued update
	h.run(10)
	if refreshable.State != model.TxnCommittedState {
		t.Fatalf("refreshable txn state = %v", refreshable.State)
	}
	if hopeless.State != model.TxnAbortedStale {
		t.Fatalf("hopeless txn state = %v", hopeless.State)
	}
}

func TestODSupersededUpdatesDiscarded(t *testing.T) {
	h := newHarness(OD, nil)
	h.txn(7.4, 1, 0.3, 2.0) // busy [7.4, 7.7]
	h.update(7.5, 7, 7.41)
	h.update(7.55, 7, 7.52)
	// The reader arrives while the CPU is still busy, so it runs at
	// 7.7 with both updates still queued.
	reader := h.txn(7.65, 1, 0.1, 2.0, 7)
	r := h.run(10)
	if reader.ReadStale {
		t.Fatal("reader should see fresh data")
	}
	if got := h.trk.GenTime(7); got != 7.52 {
		t.Fatalf("generation = %v, want the newest 7.52", got)
	}
	// Exactly one in-line install; the superseded update discarded.
	if r.UpdatesInstalled != 1 || r.UpdatesSkippedUnworthy != 1 {
		t.Fatalf("installed=%d skipped=%d", r.UpdatesInstalled, r.UpdatesSkippedUnworthy)
	}
}

func TestOSQueueOverflowDrops(t *testing.T) {
	h := newHarness(TF, func(p *model.Params) { p.OSMax = 2 })
	h.txn(0, 1, 0.5, 2.0) // busy: updates pile up in the OS queue
	for i := 0; i < 5; i++ {
		h.update(0.1+float64(i)*0.01, model.ObjectID(i), 0.05)
	}
	r := h.run(1)
	if r.UpdatesOSDropped != 3 {
		t.Fatalf("OS drops = %d, want 3", r.UpdatesOSDropped)
	}
}

func TestUpdateQueueOverflowEvicts(t *testing.T) {
	h := newHarness(TF, func(p *model.Params) {
		p.UQMax = 3
		p.Staleness = model.UnappliedUpdate // no MA expiry interference
	})
	// Back-to-back transactions keep the CPU busy so installs never
	// run, while receives (at dispatch points) fill the update queue.
	h.txn(0, 1, 0.1, 2.0)
	h.txn(0.05, 1, 0.1, 2.0)
	for i := 0; i < 6; i++ {
		h.update(0.01+float64(i)*0.01, model.ObjectID(i), float64(i)*0.01)
	}
	r := h.run(0.205) // stop before the queue drains
	if r.UpdatesOverflowDropped == 0 {
		t.Fatal("expected overflow evictions from the bounded update queue")
	}
}

func TestMAExpiryDiscardsQueuedUpdates(t *testing.T) {
	h := newHarness(TF, nil)
	// Update with an already old generation: expires at gen+7 = 7.05.
	h.txn(0, 1, 0.1, 2.0) // busy so the update is queued at dispatch
	h.update(0.05, 7, 0.05)
	// Keep the system busy past the expiry time with a long txn.
	h.txn(0.09, 1, 7.2, 8.0)
	r := h.run(8)
	if r.UpdatesExpired != 1 {
		t.Fatalf("expired = %d, want 1", r.UpdatesExpired)
	}
	if r.UpdatesInstalled != 0 {
		t.Fatalf("installed = %d, want 0", r.UpdatesInstalled)
	}
}

func TestLIFOInstallsNewestFirst(t *testing.T) {
	mk := func(order model.QueueOrder) metrics.Result {
		h := newHarness(TF, func(p *model.Params) { p.Order = order })
		h.txn(0, 1, 0.2, 2.0) // busy while three updates queue up
		h.update(0.05, 7, 0.01)
		h.update(0.06, 7, 0.02)
		h.update(0.07, 7, 0.03)
		return h.run(1)
	}
	fifo := mk(model.FIFO)
	// FIFO: ascending generations, all worthy.
	if fifo.UpdatesInstalled != 3 || fifo.UpdatesSkippedUnworthy != 0 {
		t.Fatalf("FIFO installed=%d skipped=%d, want 3/0",
			fifo.UpdatesInstalled, fifo.UpdatesSkippedUnworthy)
	}
	lifo := mk(model.LIFO)
	// LIFO: newest first, the two older ones become unworthy.
	if lifo.UpdatesInstalled != 1 || lifo.UpdatesSkippedUnworthy != 2 {
		t.Fatalf("LIFO installed=%d skipped=%d, want 1/2",
			lifo.UpdatesInstalled, lifo.UpdatesSkippedUnworthy)
	}
}

func TestPViewDelaysReads(t *testing.T) {
	h := newHarness(TF, func(p *model.Params) {
		p.PView = 0.5
		p.OnStale = model.StaleAbort
	})
	txn := h.txn(8, 1, 0.2, 1.0, 7) // object 7 stale
	h.run(10)
	if txn.State != model.TxnAbortedStale {
		t.Fatalf("state = %v", txn.State)
	}
	// Half the computation runs before the fatal read.
	want := 8 + 0.1 + lookupSec
	if math.Abs(txn.FinishTime-want) > 1e-9 {
		t.Fatalf("aborted at %v, want %v", txn.FinishTime, want)
	}
}

func TestZeroReadTransaction(t *testing.T) {
	h := newHarness(OD, nil)
	txn := h.txn(0, 1, 0.1, 1.0) // empty read set
	h.run(1)
	if txn.State != model.TxnCommittedState || txn.ReadStale {
		t.Fatalf("state=%v stale=%v", txn.State, txn.ReadStale)
	}
}

func TestTxnPreemptionExtension(t *testing.T) {
	h := newHarness(TF, func(p *model.Params) { p.TxnPreemption = true })
	lo := h.txn(0, 1, 0.2, 2.0)
	hi := h.txn(0.05, 10, 0.1, 2.0)
	h.run(1)
	if !(hi.FinishTime < lo.FinishTime) {
		t.Fatalf("preemption should let the high-value txn finish first: hi=%v lo=%v",
			hi.FinishTime, lo.FinishTime)
	}
	// The displaced transaction still completes.
	if lo.State != model.TxnCommittedState {
		t.Fatalf("displaced txn state = %v", lo.State)
	}
	want := 0.05 + 0.1
	if math.Abs(hi.FinishTime-want) > 1e-9 {
		t.Fatalf("hi finished at %v, want %v", hi.FinishTime, want)
	}
}

func TestContextSwitchCost(t *testing.T) {
	h := newHarness(UF, func(p *model.Params) { p.XSwitch = 50000 }) // 1 ms
	txn := h.txn(0, 1, 0.1, 1.0)
	h.update(0.05, 7, 0.04)
	h.run(1)
	// Preemption charges 2 * 1 ms on top of the install.
	want := 0.1 + installSec + 2*0.001
	if math.Abs(txn.FinishTime-want) > 1e-9 {
		t.Fatalf("commit at %v, want %v", txn.FinishTime, want)
	}
}

func TestQueueCostCharged(t *testing.T) {
	h := newHarness(TF, func(p *model.Params) { p.XQueue = 1e6 }) // huge, visible
	h.txn(0, 1, 0.1, 2.0)
	h.update(0.05, 7, 0.04)
	h.update(0.06, 8, 0.05)
	r := h.run(5)
	// Receive of 2 updates costs ln(1)+ln(2) = ln 2 at 1e6 instr:
	// ~0.0139s, charged to updates.
	if r.RhoUpdate*5 < 0.01 {
		t.Fatalf("queue cost not charged: update busy = %v s", r.RhoUpdate*5)
	}
}

func TestScanCostLengthensODTransaction(t *testing.T) {
	mkDur := func(xscan float64) float64 {
		h := newHarness(OD, func(p *model.Params) {
			p.XScan = xscan
			p.Staleness = model.UnappliedUpdate // scan on every read
		})
		h.txn(0, 1, 0.3, 2.0) // busy so updates queue
		for i := 0; i < 10; i++ {
			h.update(0.01+float64(i)*0.001, model.ObjectID(100+i), 0.005)
		}
		// Arrives while busy: runs at 0.3 with the queue intact.
		reader := h.txn(0.29, 1, 0.1, 2.0, 7)
		h.run(5)
		return reader.FinishTime - 0.3
	}
	base := mkDur(0)
	costly := mkDur(50000) // 1 ms per queued update scanned
	if costly <= base {
		t.Fatalf("scan cost should lengthen the transaction: %v vs %v", costly, base)
	}
}

func TestFCReservesUpdateShare(t *testing.T) {
	// Under transaction overload TF starves updates; FC keeps
	// installing at its reserved share.
	run := func(pol Policy) metrics.Result {
		p := model.DefaultParams()
		p.TxnRate = 20
		p.UpdateCPUFraction = 0.2
		return MustRun(Config{Params: p, Policy: pol, Seed: 3, Duration: 50})
	}
	tf := run(TF)
	fc := run(FC)
	if fc.RhoUpdate < 3*tf.RhoUpdate {
		t.Fatalf("FC rho_u = %v should far exceed TF rho_u = %v under overload",
			fc.RhoUpdate, tf.RhoUpdate)
	}
	if fc.RhoUpdate < 0.15 || fc.RhoUpdate > 0.25 {
		t.Fatalf("FC rho_u = %v, want near the 0.2 reservation", fc.RhoUpdate)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	p := model.DefaultParams()
	p.IPS = -1
	if _, err := Run(Config{Params: p, Policy: TF, Duration: 1}); err == nil {
		t.Fatal("Run accepted invalid params")
	}
	p = model.DefaultParams()
	if _, err := Run(Config{Params: p, Policy: TF, Duration: 0}); err == nil {
		t.Fatal("Run accepted zero duration")
	}
}

func TestMustRunPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun should panic on invalid config")
		}
	}()
	p := model.DefaultParams()
	MustRun(Config{Params: p, Policy: TF, Duration: -1})
}

func TestRunDeterministic(t *testing.T) {
	p := model.DefaultParams()
	cfg := Config{Params: p, Policy: OD, Seed: 77, Duration: 30}
	a := MustRun(cfg)
	b := MustRun(cfg)
	if a != b {
		t.Fatalf("equal seeds produced different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 78
	c := MustRun(cfg)
	if a == c {
		t.Fatal("different seeds produced identical results")
	}
}

func TestRemoveCost(t *testing.T) {
	if removeCost(100, 0) != 0 || removeCost(100, 1) != 0 {
		t.Fatal("cost for n<=1 should be zero")
	}
	if removeCost(0, 50) != 0 {
		t.Fatal("zero xqueue should cost nothing")
	}
	if got, want := removeCost(100, 10), 100*math.Log(10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("removeCost = %v, want %v", got, want)
	}
}
