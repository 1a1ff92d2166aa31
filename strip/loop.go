package strip

import (
	"errors"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
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
	db.queueLen.Store(int64(db.queue.Len()))
}

// act does the one piece of work the policy table (sched.Next, shared
// with the simulator's controller) names — a transaction, or a run of
// up to run installs — reporting whether there was any. While a
// transaction is ready a run is a single install: the table may still
// put updates first, but every one of them is followed by a scheduling
// point at which the transaction's deadline is looked at again.
func (db *DB) act(run int) bool {
	txnReady := len(db.ready) > 0
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
// cannot hold the lock open.
func (db *DB) drainIngest() {
	n := len(db.ingestCh)
	if n == 0 {
		return
	}
	db.mu.Lock()
burst:
	for ; n > 0; n-- {
		select {
		case u := <-db.ingestCh:
			db.enqueueLocked(u)
		default:
			// Unreachable while the scheduler is the only receiver; a
			// producer draining after Close may have been quicker.
			break burst
		}
	}
	db.obs.uuBacklog.Flush()
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
// expired + queued) and the UU pending counts hold by construction.
// An update that leaves uninstalled also settles its replication-lag
// account; an installed one settles it in installLocked, which knows
// the generation it installed. Callers hold db.mu for writing.
func (db *DB) settleLocked(u *model.Update, cause settleCause) {
	db.views[u.Object].pending--
	if db.onSettle != nil {
		db.onSettle(u, cause)
	}
	switch cause {
	case settleInstalled:
		db.stats.UpdatesInstalled++
		return
	case settleSkipped:
		db.stats.UpdatesSkipped++
	case settleEvicted:
		db.stats.UpdatesEvicted++
	case settleExpired:
		db.stats.UpdatesExpired++
	}
	if u.Replicated {
		db.lag.Removed(u.Object)
	}
}

// enqueueLocked inserts one received update, accounting for coalescing
// and overflow evictions and maintaining the UU pending counts. Callers
// hold db.mu for writing, run on the scheduler goroutine and flush
// uuBacklog, which the burst's observations are staged in, before they
// release the lock.
func (db *DB) enqueueLocked(u *model.Update) {
	db.stats.UpdatesReceived++
	db.views[u.Object].pending++
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
		last             model.ObjectID
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
		last = u.Object
		if hooked || popped == max || len(db.txnCh) > 0 || db.next(txnReady) != act {
			break
		}
	}
	db.endRunLocked(now, installs)
	db.mu.Unlock()
	db.afterRun(last, hooked)
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

// drainTxnCh admits buffered transaction submissions to the ready
// list.
func (db *DB) drainTxnCh() {
	for {
		select {
		case req := <-db.txnCh:
			db.ready = append(db.ready, req)
		default:
			return
		}
	}
}

// reapDeadTxns aborts queued transactions whose firm deadline has
// passed or that can no longer finish in time (feasible deadline).
func (db *DB) reapDeadTxns() {
	if len(db.ready) == 0 {
		return
	}
	now := db.now()
	kept := db.ready[:0]
	for _, req := range db.ready {
		if db.hopeless(req, now) {
			db.finish(req, Result{State: AbortedDeadline, Err: ErrDeadlineExceeded})
			continue
		}
		kept = append(kept, req)
	}
	db.ready = kept
}

// hopeless reports whether the transaction cannot commit by its
// deadline.
func (db *DB) hopeless(req *txnReq, now time.Time) bool {
	if !now.Before(req.spec.Deadline) {
		return true
	}
	if req.spec.Estimate > 0 && now.Add(req.spec.Estimate).After(req.spec.Deadline) {
		return true
	}
	return false
}

// runNextTxn executes the highest value-density ready transaction.
func (db *DB) runNextTxn() {
	best := -1
	bestPri := 0.0
	now := db.now()
	for i, req := range db.ready {
		pri := req.priority(now)
		if best < 0 || pri > bestPri {
			best, bestPri = i, pri
		}
	}
	if best < 0 {
		return
	}
	req := db.ready[best]
	db.ready = append(db.ready[:best], db.ready[best+1:]...)
	db.execute(req)
}

// priority is the value density: value per second of estimated work,
// falling back to value per second of remaining slack when no
// estimate is given.
func (req *txnReq) priority(now time.Time) float64 {
	if req.spec.Estimate > 0 {
		return req.spec.Value / req.spec.Estimate.Seconds()
	}
	remaining := req.spec.Deadline.Sub(now).Seconds()
	if remaining <= 0 {
		return req.spec.Value * 1e9
	}
	return req.spec.Value / remaining
}

// idleWait blocks until an arrival, a submission, the next queued
// deadline, or shutdown. It returns false on shutdown.
func (db *DB) idleWait() bool {
	var timer *time.Timer
	var deadlineC <-chan time.Time
	if next, ok := db.nextDeadline(); ok {
		d := next.Sub(db.now())
		if d < 0 {
			d = 0
		}
		timer = time.NewTimer(d)
		deadlineC = timer.C
	}
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	select {
	case u := <-db.ingestCh:
		db.mu.Lock()
		db.enqueueLocked(u)
		db.obs.uuBacklog.Flush()
		db.mu.Unlock()
		return true
	case req := <-db.txnCh:
		db.ready = append(db.ready, req)
		return true
	case <-deadlineC:
		return true
	case <-db.stopCh:
		return false
	}
}

// nextDeadline returns the earliest deadline among ready transactions.
func (db *DB) nextDeadline() (time.Time, bool) {
	var out time.Time
	found := false
	for _, req := range db.ready {
		if !found || req.spec.Deadline.Before(out) {
			out = req.spec.Deadline
			found = true
		}
	}
	return out, found
}

// shutdown fails every queued and buffered transaction with ErrClosed.
func (db *DB) shutdown() {
	db.drainTxnCh()
	for _, req := range db.ready {
		db.finish(req, Result{State: Failed, Err: ErrClosed})
	}
	db.ready = nil
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
	db.mu.Unlock()
	req.res <- res
}
