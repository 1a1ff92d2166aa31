package sched

import (
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/uqueue"
	"repro/internal/workload"
)

// estimateSeconds is the perfect execution-time estimate of §3.4.
func estimateSeconds(p *model.Params, txn *model.Txn) float64 {
	return workload.EstimateSeconds(p, txn)
}

// txnRun is the controller-side execution state of one transaction:
// which stage it is in, how much of the current stage remains after
// preemptions, and the perfect-estimate remaining time used for value
// density and the feasible-deadline test.
type txnRun struct {
	uqueue.Rank // density at the last push, and the transaction's ID
	txn         *model.Txn

	// estRemaining is the remaining base execution time (computation
	// plus lookups) in seconds. OD's in-line scans and applies are
	// not part of the estimate, matching the paper's perfect-estimate
	// assumption.
	estRemaining float64

	// stage: 0 = pre-read computation, 1 = view reads, 2 = post-read
	// computation.
	stage int
	// readIdx is the index of the read being performed in stage 1.
	readIdx int
	// stageRemaining is the unexecuted seconds of the current base
	// job (set when a stage or read starts, decremented on
	// preemption).
	stageRemaining float64

	// abortPending marks a firm-deadline abort that must take effect
	// at the next flow continuation (set when the deadline fires
	// during a non-cancellable in-line install).
	abortPending bool

	deadlineEv *sim.Event
}

// resolved reports whether the transaction has committed or aborted.
func (tr *txnRun) resolved() bool {
	return tr.txn.State == model.TxnCommittedState ||
		tr.txn.State == model.TxnAbortedDeadline ||
		tr.txn.State == model.TxnAbortedStale
}

// readyQueue is the live engine's ready queue too, with the simulator's
// lazy discard: a transaction resolved while queued stays in it, counted
// by Len, until a Pop meets it.
type readyQueue struct{ uqueue.Heap[*txnRun] }

func newReadyQueue() readyQueue { return readyQueue{uqueue.NewReadyQueue[*txnRun]()} }

// Push queues tr at its current density.
func (rq *readyQueue) Push(tr *txnRun) {
	tr.Density = uqueue.Density(tr.txn.Value, tr.estRemaining)
	rq.Heap.Push(tr)
}

// Pop removes and returns the densest unresolved transaction, or nil.
func (rq *readyQueue) Pop() *txnRun {
	for rq.Len() > 0 {
		if tr := rq.Heap.Pop(); !tr.resolved() {
			return tr
		}
	}
	return nil
}

// continueTxn starts (or resumes after preemption) the base job for
// the transaction's current stage. Stage layout (§3.4): pview of the
// computation, then the view reads, then the rest of the computation.
func (c *Controller) continueTxn(tr *txnRun) {
	if tr.abortPending {
		c.resolve(tr, model.TxnAbortedDeadline)
		c.dispatch()
		return
	}
	switch tr.stage {
	case 0:
		if tr.stageRemaining == 0 && tr.readIdx == 0 {
			// Entering stage 0 fresh: compute the pre-read segment.
			tr.stageRemaining = tr.txn.PView * tr.txn.CompSeconds
		}
		if tr.stageRemaining <= 0 {
			c.enterReads(tr)
			return
		}
		c.startTxnBaseJob(tr, tr.stageRemaining, func() {
			tr.stageRemaining = 0
			c.enterReads(tr)
		})
	case 1:
		// Resuming a preempted lookup.
		c.startTxnBaseJob(tr, tr.stageRemaining, func() {
			tr.stageRemaining = 0
			c.onReadDone(tr)
		})
	case 2:
		c.startTxnBaseJob(tr, tr.stageRemaining, func() {
			tr.stageRemaining = 0
			c.commit(tr)
		})
	}
}

// startTxnBaseJob runs dur seconds of estimated transaction work.
// Base jobs are preemptible under the policies where some update class
// preempts (UF and SU); which arrivals actually do is decided per
// update in onUpdateArrival.
func (c *Controller) startTxnBaseJob(tr *txnRun, dur float64, onDone func()) {
	c.startJob(&job{
		kind:        metrics.CPUTxn,
		dur:         dur,
		tr:          tr,
		base:        true,
		preemptible: Preempts(c.policy, model.High),
		onDone:      onDone,
	})
}

// enterReads moves the transaction into its view-read stage.
func (c *Controller) enterReads(tr *txnRun) {
	tr.stage = 1
	tr.readIdx = 0
	c.startNextRead(tr)
}

// startNextRead begins the lookup for the next view object, or moves
// on to the post-read computation when all reads are done.
func (c *Controller) startNextRead(tr *txnRun) {
	if tr.abortPending {
		c.resolve(tr, model.TxnAbortedDeadline)
		c.dispatch()
		return
	}
	if tr.readIdx >= len(tr.txn.ReadSet) {
		c.enterWork2(tr)
		return
	}
	tr.stageRemaining = c.lookupSec + c.ioCost(tr.txn.ReadSet[tr.readIdx])
	c.startTxnBaseJob(tr, tr.stageRemaining, func() {
		tr.stageRemaining = 0
		c.onReadDone(tr)
	})
}

// enterWork2 starts the post-read computation segment.
func (c *Controller) enterWork2(tr *txnRun) {
	tr.stage = 2
	tr.stageRemaining = (1 - tr.txn.PView) * tr.txn.CompSeconds
	if tr.stageRemaining <= 0 {
		c.commit(tr)
		return
	}
	c.startTxnBaseJob(tr, tr.stageRemaining, func() {
		tr.stageRemaining = 0
		c.commit(tr)
	})
}

// commit finishes the transaction successfully. The firm-deadline
// event would have fired first had the deadline passed, so reaching
// here means the transaction is on time.
func (c *Controller) commit(tr *txnRun) {
	c.resolve(tr, model.TxnCommittedState)
	c.dispatch()
}

// onReadDone runs after the lookup of ReadSet[readIdx] completes: the
// staleness check of §3.4 step 2, including the On Demand refresh
// path of §4.4.
func (c *Controller) onReadDone(tr *txnRun) {
	obj := tr.txn.ReadSet[tr.readIdx]
	now := c.sim.Now()

	if c.policy.RefreshesOnRead() {
		c.odRead(tr, obj)
		return
	}
	if c.tracker.IsStale(obj, now) {
		c.staleRead(tr)
		return
	}
	c.advanceRead(tr)
}

// advanceRead moves to the next view read.
func (c *Controller) advanceRead(tr *txnRun) {
	tr.readIdx++
	c.startNextRead(tr)
}

// staleRead records a stale read and applies the configured action:
// continue (metric only) or abort (§6.2).
func (c *Controller) staleRead(tr *txnRun) {
	tr.txn.ReadStale = true
	if c.p.OnStale == model.StaleAbort {
		c.resolve(tr, model.TxnAbortedStale)
		c.dispatch()
		return
	}
	c.advanceRead(tr)
}

// odRead performs the On Demand staleness handling for one read.
//
// Under MA the object's timestamp answers the staleness question for
// free; only a stale object triggers the queue scan. Under UU (and
// UU-strict) the scan itself is the staleness check, so its cost is
// paid on every view read (§6.3).
func (c *Controller) odRead(tr *txnRun, obj model.ObjectID) {
	now := c.sim.Now()
	scanEveryRead := c.p.Staleness != model.MaxAge

	if !scanEveryRead && !c.tracker.IsStale(obj, now) {
		c.advanceRead(tr)
		return
	}
	scanDur := c.p.Seconds(c.p.XScan * float64(c.uq.Len()))
	c.startJob(&job{
		kind: metrics.CPUTxn, // the scan lengthens the reading transaction
		dur:  scanDur,
		tr:   tr,
		onDone: func() {
			if tr.abortPending {
				c.resolve(tr, model.TxnAbortedDeadline)
				c.dispatch()
				return
			}
			c.odAfterScan(tr, obj)
		},
	})
}

// odAfterScan decides, with the scan paid for, whether a queued update
// can refresh the object, and applies it in-line if so.
func (c *Controller) odAfterScan(tr *txnRun, obj model.ObjectID) {
	now := c.sim.Now()
	class := c.p.ObjectClass(obj)

	if !c.tracker.IsStale(obj, now) {
		// Either the object was never stale (UU scan-every-read) or
		// it was refreshed while this transaction was queued.
		c.advanceRead(tr)
		return
	}

	if c.p.UsesMaxAge() {
		u := c.uq.NewestFor(class, obj)
		if u == nil || now-u.GenTime > c.p.MaxAgeDelta {
			// No queued update can make the object fresh.
			c.staleRead(tr)
			return
		}
	}

	newest, superseded := c.uq.TakeFor(class, obj)
	if newest == nil {
		// UU-strict can report staleness with an empty queue (the
		// pending update was dropped); nothing to apply.
		c.staleRead(tr)
		return
	}
	// Superseded older updates for the object are discarded.
	for _, old := range superseded {
		c.tracker.Removed(obj, newest.GenTime, now)
		c.col.UpdateSkippedUnworthy()
		c.traceUpdate(TraceUpdateSkipped, old)
	}
	if newest.GenTime <= c.tracker.GenTime(obj) {
		// The database already holds a newer value than anything
		// queued: the queued updates were worthless.
		c.tracker.Removed(obj, newest.GenTime, now)
		c.col.UpdateSkippedUnworthy()
		c.traceUpdate(TraceUpdateSkipped, newest)
		if c.tracker.IsStale(obj, now) {
			c.staleRead(tr)
			return
		}
		c.advanceRead(tr)
		return
	}

	// Apply the newest update in-line. The install is charged to the
	// update process (it is update work, §6.1 accounting) and is not
	// cancelled by the firm deadline — the value is useful to the
	// database regardless of the transaction's fate.
	c.startJob(&job{
		kind: metrics.CPUUpdate,
		dur:  c.updateSec,
		tr:   tr,
		onDone: func() {
			t := c.sim.Now()
			c.tracker.Installed(obj, newest.GenTime, t)
			c.col.UpdateInstalled()
			c.traceUpdate(TraceUpdateInstalled, newest)
			if tr.abortPending {
				c.resolve(tr, model.TxnAbortedDeadline)
				c.dispatch()
				return
			}
			if c.tracker.IsStale(obj, t) {
				// MA: even the newest update left the object stale
				// (aged past Delta while applying — rare).
				c.staleRead(tr)
				return
			}
			c.advanceRead(tr)
		},
	})
}
