package strip

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/uqueue"
)

// installRunLen bounds how many updates the scheduler installs under
// one critical section and one pair of clock readings (see installRun).
const installRunLen = 64

// loop is the scheduler goroutine: the paper's controller and CPU in
// one, stepping until shutdown and sleeping when a step finds nothing
// to do. Unlike step it installs a run of updates per scheduling point.
func (db *DB) loop() {
	defer close(db.done)
	for {
		db.intake()
		if db.answered {
			// finish readied the submitters it answered on this
			// processor's run-next slot, where they would wait out the
			// busy scheduler until the runtime preempts it, 10 ms later.
			// With the arrivals received, let them run.
			db.answered = false
			runtime.Gosched()
		}
		select {
		case <-db.stopCh:
			db.shutdown()
			return
		default:
		}
		if !db.act(installRunLen) && !db.idleWait() {
			db.shutdown()
			return
		}
	}
}

// step is one scheduling point that does exactly one piece of work, as
// loop runs it between its shutdown checks with a run length of one. It
// reports whether there was any work.
func (db *DB) step() bool {
	db.intake()
	return db.act(1)
}

// intake receives pending arrivals, discards expired updates and reaps
// dead transactions.
func (db *DB) intake() {
	db.drainIngest()
	db.expireQueue()
	db.drainTxnCh()
	db.reapDeadTxns()
}

// act does the one piece of work the policy table (sched.Next, shared
// with the simulator's controller) names — a transaction, or a run of
// up to run installs — reporting whether there was any. While a
// transaction is ready a run is a single install: the table may still
// put updates first, but every one of them is followed by a scheduling
// point at which the transaction's deadline is looked at again.
func (db *DB) act(run int) bool {
	txnReady := db.ready.Len() > 0
	if db.next(txnReady) == sched.RunTxn {
		db.runNextTxn()
		return true
	}
	if txnReady {
		run = 1
	}
	return db.installRun(txnReady, run) > 0
}

// next asks the policy table what to do given the queue's two class
// backlogs.
func (db *DB) next(txnReady bool) sched.Action {
	return sched.Next(db.cfg.Policy,
		db.queue.LenClass(model.High) > 0, db.queue.LenClass(model.Low) > 0, txnReady)
}

// drainIngest moves the buffered burst of arrivals into the update
// queue (the paper's receive step, which takes every waiting update at
// a scheduling point) under one critical section. The burst is what
// was buffered when the scheduler looked: producers that keep offering
// cannot hold the lock open. It ends early at an empty head slot — a
// position claimed and not yet filled, or one a sweep after Close has
// taken — and what is behind it waits for the next scheduling point.
func (db *DB) drainIngest() {
	r := db.ingest
	n := r.len()
	if n == 0 {
		return
	}
	db.mu.Lock()
	r.consumer.Lock()
	for ; n > 0; n-- {
		u := r.poll()
		if u == nil {
			break
		}
		db.enqueueLocked(u)
	}
	r.consumer.Unlock()
	r.freed()
	db.obs.uuBacklog.Flush()
	db.publishQueueLocked()
	db.mu.Unlock()
}

// settleCause says how a queued update left the queue.
type settleCause int

const (
	settleInstalled settleCause = iota // written into its view
	settleSkipped                      // superseded, coalesced or unworthy
	settleEvicted                      // casualty of queue overflow
	settleExpired                      // older than MaxAge
)

// settleLocked is the one exit from the update queue: every update
// that enqueue counted in leaves through here, exactly once, so the
// conservation ledger (received = installed + skipped + evicted +
// expired + queued) and the UU pending counts — the catalog's and, for
// a replicated update, the replica-lag account's — hold by
// construction. Callers hold db.mu for writing.
func (db *DB) settleLocked(u *model.Update, cause settleCause) {
	db.viewLocked(u.Object).pending--
	if db.onSettle != nil {
		db.onSettle(u, cause)
	}
	switch cause {
	case settleInstalled:
		db.stats.UpdatesInstalled++
	case settleSkipped:
		db.stats.UpdatesSkipped++
	case settleEvicted:
		db.stats.UpdatesEvicted++
	case settleExpired:
		db.stats.UpdatesExpired++
	}
	if u.Replicated {
		db.lag.Settled(u.Object)
	}
}

// enqueueLocked inserts one received update, accounting for coalescing
// and overflow evictions and maintaining the UU pending counts. A
// replicated update opens its replica-lag account here, where the
// scheduler receives it: one admitted before the last ResetToSnapshot
// counts as backlog until installLocked discards it, but its generation
// belongs to the deposed stream and is not a receipt. Callers hold
// db.mu for writing, run on the scheduler goroutine and flush
// uuBacklog, which the burst's observations are staged in, before they
// release the lock.
func (db *DB) enqueueLocked(u *model.Update) {
	db.stats.UpdatesReceived++
	db.viewLocked(u.Object).pending++
	if u.Replicated {
		gen := db.updateGen(u)
		if u.Seq <= db.replBarrier {
			gen = noGen
		}
		db.lag.Received(u.Object, gen)
	}
	for _, ev := range db.queue.Insert(u) {
		switch {
		case ev == u && !db.cfg.Coalesce:
			// The arrival is itself the oldest generation in a full
			// queue: a capacity casualty like any other. (A coalescing
			// queue hands the arrival back when it rejects it for a
			// newer queued generation, which is a skip.)
			db.settleLocked(ev, settleEvicted)
		case ev.Object == u.Object:
			// Same object: superseded by a newer generation
			// (coalescing), not a capacity casualty.
			db.settleLocked(ev, settleSkipped)
		default:
			db.settleLocked(ev, settleEvicted)
		}
	}
	// How many unapplied updates this arrival queues behind: the UU
	// criterion's distribution.
	db.obs.uuBacklog.ObserveStaged(int64(db.queue.Len()))
}

// expireQueue drops queued updates older than MaxAge (MA only).
func (db *DB) expireQueue() {
	if db.cfg.MaxAge <= 0 || db.queue.Len() == 0 {
		return
	}
	cutoff := db.secs(db.now().Add(-db.cfg.MaxAge))
	expired := db.queue.DiscardOlderGen(cutoff)
	if len(expired[model.Low])+len(expired[model.High]) == 0 {
		return
	}
	db.mu.Lock()
	for _, class := range expired {
		for _, u := range class {
			db.settleLocked(u, settleExpired)
		}
	}
	db.publishQueueLocked()
	db.mu.Unlock()
}

// installRun installs a run of up to max queued updates under one
// critical section and one pair of clock readings, and returns how many
// left the queue. Before every pop it asks the policy table again, with
// txnReady as the caller sees it, so the order of installs and the fate
// of every update are what max == 1, one scheduling point per install,
// produces. The run ends
//
//   - when the table's answer changes (the class is drained, or nothing
//     is left),
//   - at max,
//   - when a transaction has been submitted (len(db.txnCh) > 0):
//     transaction latency does not pay for feed throughput, or
//   - at the first install with anything to fire: its triggers, watchers
//     and derived views run outside db.mu and before the next install,
//     and see their own update in the view.
//
// Within a run the clock stands still: MaxAge expiry and deadline
// reaping happen at the scheduling point before it, not between its
// installs. It runs on the scheduler goroutine.
func (db *DB) installRun(txnReady bool, max int) int {
	act := db.next(txnReady)
	class := -1
	switch act {
	case sched.InstallHigh:
		class = int(model.High)
	case sched.InstallLow:
		class = int(model.Low)
	case sched.InstallMerged:
	default:
		return 0
	}
	now := db.nowNanos()
	var (
		popped, installs int
		hooked           bool
	)
	db.mu.Lock()
	for {
		u := db.queue.Pop(db.order, class)
		if u == nil {
			break
		}
		popped++
		var worthy int
		worthy, hooked = db.installLocked(u, nil, now)
		installs += worthy
		if hooked || popped == max || len(db.txnCh) > 0 || db.next(txnReady) != act {
			break
		}
	}
	db.endRunLocked(now, installs)
	db.publishQueueLocked()
	db.mu.Unlock()
	db.afterRun(hooked)
	return popped
}

// refreshOnDemand applies the newest queued update for the object, if
// any (the OnDemand in-line refresh), and reports whether there was
// one: the object's entry and its staleness are then to be read again.
// All superseded queued updates for the object are discarded.
func (db *DB) refreshOnDemand(id model.ObjectID, class Importance) bool {
	newest, superseded := db.queue.TakeFor(class, id)
	if newest == nil {
		return false
	}
	db.install(newest, superseded)
	return true
}

// drainTxnCh admits buffered transaction submissions.
func (db *DB) drainTxnCh() {
	for {
		select {
		case req := <-db.txnCh:
			db.admit(req)
		default:
			return
		}
	}
}

// admit puts a submitted transaction into both orderings of the ready
// ones, ranked by the simulator's density rule.
func (db *DB) admit(req *txnReq) {
	req.Density = uqueue.Density(req.spec.Value, req.spec.Estimate.Seconds())
	db.ready.Push(req)
	db.due.Push(req)
}

// reapDeadTxns aborts the ready transactions whose firm deadline has
// passed or that can no longer finish in time (feasible deadline): the
// ones hopeless names, which lead the latest-start order.
func (db *DB) reapDeadTxns() {
	if db.due.Len() == 0 {
		return
	}
	now := db.now()
	for db.due.Len() > 0 && db.hopeless(db.due.Top(), now) {
		req := db.due.Pop()
		db.ready.Remove(req)
		db.finish(req, Result{State: AbortedDeadline, Err: ErrDeadlineExceeded})
		db.answered = true
	}
}

// hopeless reports whether the transaction cannot commit by its
// deadline: the deadline has come, or it has an estimate and its latest
// start has passed.
func (db *DB) hopeless(req *txnReq, now time.Time) bool {
	return !now.Before(req.spec.Deadline) || req.spec.Estimate > 0 && now.After(req.latestStart())
}

// latestStart is the deadline less the estimate, if any.
func (req *txnReq) latestStart() time.Time {
	return req.spec.Deadline.Add(-max(req.spec.Estimate, 0))
}

// startsBefore orders by latest start, and at equal ones puts the
// transaction without an estimate first: hopeless names it at that
// instant, the other just after.
func startsBefore(a, b *txnReq) bool {
	sa, sb := a.latestStart(), b.latestStart()
	return sa.Before(sb) || sa.Equal(sb) && a.spec.Estimate <= 0 && b.spec.Estimate > 0
}

// runNextTxn executes the highest value-density ready transaction.
func (db *DB) runNextTxn() {
	req := db.ready.Pop()
	db.due.Remove(req)
	db.execute(req)
}

// idleWait blocks until an arrival, a submission or shutdown, and
// returns false on shutdown. It waits for no deadline: none is ready,
// since act reports work while one is
// (TestActReportsWorkWhileATxnIsReady). It receives no update itself:
// an arrival rings the ingest buffer's doorbell, and the next
// scheduling point's drainIngest receives it. The scheduler parks
// whenever the head slot is empty, even with later slots filled behind
// a position claimed and not yet filled: the producer that fills the
// head slot rings (see ingestRing).
func (db *DB) idleWait() bool {
	r := db.ingest
	if !r.sleep() {
		return true
	}
	defer r.awake()
	select {
	case <-r.bell:
		return true
	case req := <-db.txnCh:
		db.admit(req)
		return true
	case <-db.stopCh:
		return false
	}
}

// shutdown fails every queued and buffered transaction with ErrClosed.
func (db *DB) shutdown() {
	db.drainTxnCh()
	for db.ready.Len() > 0 {
		req := db.ready.Pop()
		db.due.Remove(req)
		db.finish(req, Result{State: Failed, Err: ErrClosed})
	}
}

// finish delivers a transaction result and updates the counters.
func (db *DB) finish(req *txnReq, res Result) {
	db.mu.Lock()
	switch res.State {
	case Committed:
		db.stats.TxnsCommitted++
		db.stats.ValueCommitted += req.spec.Value
		if res.ReadStale {
			db.stats.TxnsCommittedStale++
		}
		if !res.Finished.IsZero() {
			db.obs.commitLatency.Observe(res.Finished.Sub(req.enqueued).Nanoseconds())
		}
	case AbortedDeadline:
		db.stats.TxnsAbortedDeadline++
	case AbortedStale:
		db.stats.TxnsAbortedStale++
	case Failed:
		db.stats.TxnsFailed++
		if errors.Is(res.Err, ErrDurability) {
			db.stats.TxnsFailedDurability++
		}
	}
	db.publishStatsLocked()
	db.mu.Unlock()
	req.res <- res
}
