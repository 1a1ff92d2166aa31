package sched

import (
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/uqueue"
)

// trackerWithGen is what the controller needs from a staleness
// tracker: the event interface plus the installed generation time used
// by the worthiness check. Every tracker in internal/metrics satisfies
// it.
type trackerWithGen interface {
	metrics.Tracker
	metrics.GenTimer
}

// job is one uninterrupted stretch of CPU work. The controller runs at
// most one job at a time; preemptible jobs (transaction work under UF
// and SU) can be suspended by an arriving update, every other job runs
// to completion.
type job struct {
	kind metrics.CPUKind
	// dur is the remaining duration in seconds (decremented when the
	// job is preempted part-way).
	dur       float64
	startedAt float64
	ev        *sim.Event
	// tr is the transaction this job belongs to, nil for update work.
	tr *txnRun
	// base marks jobs that are part of the transaction's perfect
	// execution estimate (computation and lookups); OD scans and
	// in-line applies are not base jobs.
	base bool
	// preemptible jobs can be suspended by update arrivals (UF/SU).
	preemptible bool
	onDone      func()
}

// Controller is the §3.1 controller process: it owns the OS queue, the
// update queue, the transaction ready queue and the single CPU, and
// implements the scheduling policies.
type Controller struct {
	sim     *sim.Simulator
	p       *model.Params
	policy  Policy
	tracker trackerWithGen
	col     *metrics.Collector

	osq *uqueue.OSQueue
	uq  *uqueue.ClassQueue

	ready     readyQueue
	current   *job
	running   *txnRun // transaction whose flow owns the CPU
	suspended *txnRun // transaction preempted by update work (UF/SU)

	// pendingSwitch is the context-switch cost (seconds) charged to
	// the next update job after a preemption (2·xswitch, §3.3).
	pendingSwitch float64

	// busyTxn/busyUpd track unclipped busy seconds for FC's deficit
	// accounting.
	busyTxn, busyUpd float64

	lookupSec float64
	updateSec float64
	switchSec float64

	// bp models the page cache of the disk-resident extension; nil
	// for the paper's main-memory baseline.
	bp *bufferPool

	// tracer receives scheduling events; nil disables tracing.
	tracer Tracer
}

// newController wires up a controller for one simulation run.
func newController(s *sim.Simulator, p *model.Params, policy Policy,
	tracker trackerWithGen, col *metrics.Collector, queueSeed uint64) *Controller {
	c := &Controller{
		sim:       s,
		p:         p,
		policy:    policy,
		tracker:   tracker,
		col:       col,
		osq:       uqueue.NewOSQueue(p.OSMax),
		ready:     newReadyQueue(),
		lookupSec: p.Seconds(p.XLookup),
		updateSec: p.Seconds(p.XUpdate),
		switchSec: p.Seconds(p.XSwitch),
	}
	if policy.usesUpdateQueue() {
		c.uq = uqueue.NewClassQueue(p.UQMax, queueSeed, p.CoalesceQueue)
	}
	if p.DiskResident {
		c.bp = newBufferPool(p.BufferPoolPages)
	}
	return c
}

// ioCost returns the disk stall for touching an object's page: zero
// in the main-memory baseline or on a buffer pool hit. The access is
// recorded in the metrics.
func (c *Controller) ioCost(obj model.ObjectID) float64 {
	if c.bp == nil {
		return 0
	}
	if c.bp.access(obj) {
		c.col.PageAccess(true)
		return 0
	}
	c.col.PageAccess(false)
	return c.p.IOSeconds
}

// startJob begins a job on the CPU. The controller must be idle.
func (c *Controller) startJob(j *job) {
	if c.current != nil {
		panic("sched: starting a job while the CPU is busy")
	}
	if j.dur < 0 {
		j.dur = 0
	}
	j.startedAt = c.sim.Now()
	c.current = j
	j.ev = c.sim.After(j.dur, func() { c.completeJob(j) })
}

// completeJob charges the job's CPU time and runs its continuation.
func (c *Controller) completeJob(j *job) {
	now := c.sim.Now()
	c.charge(j.kind, j.startedAt, now)
	if j.tr != nil && j.base {
		j.tr.estRemaining -= now - j.startedAt
		if j.tr.estRemaining < 0 {
			j.tr.estRemaining = 0
		}
	}
	c.current = nil
	j.onDone()
}

// charge books busy CPU seconds both to the metrics collector (which
// clips to the measurement window) and to the controller's own
// counters used by FC.
func (c *Controller) charge(kind metrics.CPUKind, from, to float64) {
	c.col.ChargeCPU(kind, from, to)
	if kind == metrics.CPUTxn {
		c.busyTxn += to - from
	} else {
		c.busyUpd += to - from
	}
}

// cancelCurrent stops the running job part-way, charging the elapsed
// time, and returns it with its duration reduced to the unexecuted
// remainder. The CPU is left idle.
func (c *Controller) cancelCurrent() *job {
	j := c.current
	if j == nil {
		return nil
	}
	now := c.sim.Now()
	elapsed := now - j.startedAt
	c.charge(j.kind, j.startedAt, now)
	if j.tr != nil && j.base {
		j.tr.estRemaining -= elapsed
		if j.tr.estRemaining < 0 {
			j.tr.estRemaining = 0
		}
	}
	j.dur -= elapsed
	if j.dur < 0 {
		j.dur = 0
	}
	c.sim.Cancel(j.ev)
	c.current = nil
	return j
}

// preemptRunningTxn suspends the running transaction so update work
// can take the CPU (UF, and SU for high-importance updates). The
// 2·xswitch context-switch cost is charged to the next update job.
func (c *Controller) preemptRunningTxn() {
	j := c.cancelCurrent()
	if j == nil || j.tr == nil {
		panic("sched: preempting a non-transaction job")
	}
	tr := j.tr
	tr.stageRemaining = j.dur
	c.suspended = tr
	c.running = nil
	c.pendingSwitch += 2 * c.switchSec
	c.traceTxn(TraceTxnPreempted, tr)
}

// takePendingSwitch consumes the accumulated context-switch charge.
func (c *Controller) takePendingSwitch() float64 {
	s := c.pendingSwitch
	c.pendingSwitch = 0
	return s
}

// feasible reports whether tr can still commit by its deadline given
// its perfect remaining-time estimate.
func (c *Controller) feasible(tr *txnRun, now float64) bool {
	return now+tr.estRemaining <= tr.txn.Deadline+1e-12
}

// dispatch is the scheduling point: called whenever the CPU goes idle
// and at arrivals that may claim an idle CPU. It discards expired
// updates (MA), then picks the next work item per the policy.
func (c *Controller) dispatch() {
	if c.current != nil {
		return
	}
	now := c.sim.Now()
	if c.uq != nil {
		// Receive: at every scheduling point the controller moves
		// all OS-queued updates into the update queue ("all of the
		// updates will be received at once", §3.3). Only the install
		// step is deferred; the receive itself is cheap bookkeeping.
		// When the modelled receive cost is non-zero it runs as a CPU
		// job and this dispatch resumes at its completion.
		if c.osq.Len() > 0 && c.startReceive() {
			return
		}
		c.col.SampleQueueLen(c.uq.Len())
		// MA expiry: updates older than Delta can never make an
		// object fresh, so they are discarded at every scheduling
		// point (§4.2).
		if c.p.UsesMaxAge() {
			if cost := c.discardExpired(now); cost > 0 {
				c.startJob(&job{
					kind:   metrics.CPUUpdate,
					dur:    cost,
					onDone: c.dispatch,
				})
				return
			}
		}
	}

	// The policy table picks the work; this loop only supplies its
	// inputs and carries out its answer. A RunTxn answer can come to
	// nothing — every candidate may fail the feasible-deadline test
	// and be aborted on the way — in which case the table is asked
	// again with no transaction ready.
	for txnReady := c.suspended != nil || c.ready.Len() > 0; ; txnReady = false {
		high, low := c.backlog()
		act := Next(c.policy, high, low, txnReady)
		if c.policy == FC && act == RunTxn && (high || low) &&
			c.busyUpd < c.p.UpdateCPUFraction*(c.busyTxn+c.busyUpd) {
			// FC: the update process is below its reserved CPU share,
			// so its backlog runs ahead of the ready transaction.
			act = InstallMerged
		}
		switch act {
		case RunTxn:
			if c.resumeOrNextTxn() {
				return
			}
			continue
		case InstallHigh:
			c.startInstallFromQueue(int(model.High))
		case InstallLow:
			c.startInstallFromQueue(int(model.Low))
		case InstallMerged:
			if c.uq == nil {
				c.startInstallFromOS()
			} else {
				c.startInstallFromQueue(c.mergedClass())
			}
		}
		return
	}
}

// backlog reports which importance classes have update work waiting:
// the update queue's two partitions, or — under UF, which installs
// straight from the OS queue — that queue, reported as low.
func (c *Controller) backlog() (high, low bool) {
	if c.uq == nil {
		return false, c.osq.Len() > 0
	}
	return c.uq.LenClass(model.High) > 0, c.uq.LenClass(model.Low) > 0
}

// mergedClass returns the class selector for a merged install: both
// classes in generation order by default, high-before-low with the
// PartitionedQueues extension.
func (c *Controller) mergedClass() int {
	if c.p.PartitionedQueues {
		if c.uq.LenClass(model.High) > 0 {
			return int(model.High)
		}
		return int(model.Low)
	}
	return -1
}

// discardExpired drops every queued update older than Delta and
// returns the modelled queue-removal cost in seconds.
func (c *Controller) discardExpired(now float64) float64 {
	cutoff := now - c.p.MaxAgeDelta
	n := c.uq.Len()
	cost := 0.0
	for _, class := range c.uq.DiscardOlderGen(cutoff) {
		for _, u := range class {
			c.tracker.Removed(u.Object, u.GenTime, now)
			c.col.UpdateExpired()
			c.traceUpdate(TraceUpdateExpired, u)
			cost += c.p.Seconds(removeCost(c.p.XQueue, n))
			n--
		}
	}
	return cost
}

// resumeOrNextTxn resumes the update-preempted transaction or starts
// the highest-density feasible pending transaction. It reports whether
// a transaction job was started; infeasible transactions encountered
// on the way are aborted (the feasible-deadline policy of §3.4).
func (c *Controller) resumeOrNextTxn() bool {
	now := c.sim.Now()
	if tr := c.suspended; tr != nil {
		c.suspended = nil
		if tr.abortPending || (c.p.FeasibleDeadline && !c.feasible(tr, now)) {
			c.resolve(tr, model.TxnAbortedDeadline)
		} else {
			c.running = tr
			c.traceTxn(TraceTxnResumed, tr)
			c.continueTxn(tr)
			return true
		}
	}
	for {
		tr := c.ready.Pop()
		if tr == nil {
			return false
		}
		if c.p.FeasibleDeadline && !c.feasible(tr, now) {
			c.resolve(tr, model.TxnAbortedDeadline)
			continue
		}
		c.running = tr
		tr.txn.State = model.TxnRunningState
		c.traceTxn(TraceTxnStarted, tr)
		c.continueTxn(tr)
		return true
	}
}

// resolve finishes a transaction in the given terminal state and
// reports it to the metrics collector. It does not dispatch; callers
// on the CPU path must dispatch afterwards.
func (c *Controller) resolve(tr *txnRun, state model.TxnState) {
	if tr.resolved() {
		return
	}
	c.sim.Cancel(tr.deadlineEv)
	tr.txn.State = state
	tr.txn.FinishTime = c.sim.Now()
	c.col.TxnResolved(tr.txn)
	switch state {
	case model.TxnCommittedState:
		c.traceTxn(TraceTxnCommitted, tr)
	case model.TxnAbortedDeadline:
		c.traceTxn(TraceTxnAbortedDeadline, tr)
	case model.TxnAbortedStale:
		c.traceTxn(TraceTxnAbortedStale, tr)
	}
	if c.running == tr {
		c.running = nil
	}
}

// onTxnArrival admits a new transaction: schedules its firm deadline,
// queues it by value density, and claims the CPU if it is idle (or,
// with the TxnPreemption extension, preempts a lower-density running
// transaction).
func (c *Controller) onTxnArrival(txn *model.Txn) {
	c.col.TxnArrived()
	tr := &txnRun{Rank: uqueue.Rank{ID: txn.ID}, txn: txn, estRemaining: estimateSeconds(c.p, txn)}
	c.traceTxn(TraceTxnArrived, tr)
	tr.deadlineEv = c.sim.At(txn.Deadline, func() { c.onDeadline(tr) })
	c.ready.Push(tr)
	if c.current == nil {
		c.dispatch()
		return
	}
	if c.p.TxnPreemption && c.current.tr != nil && c.current.base &&
		c.running != nil && tr.Density > uqueue.Density(c.running.txn.Value, c.running.estRemaining) {
		// Extension: transaction preemption by value density. The
		// displaced transaction re-enters the ready queue with its
		// updated remaining time.
		j := c.cancelCurrent()
		displaced := j.tr
		displaced.stageRemaining = j.dur
		displaced.txn.State = model.TxnPendingState
		c.running = nil
		c.ready.Push(displaced)
		c.dispatch()
	}
}

// onDeadline enforces the firm deadline: an unresolved transaction is
// aborted wherever it is — queued, suspended, or on the CPU. A
// transaction mid-way through an On Demand in-line install finishes
// that install first (the install is useful to the database
// regardless), then aborts.
func (c *Controller) onDeadline(tr *txnRun) {
	if tr.resolved() {
		return
	}
	if c.current != nil && c.current.tr == tr {
		if c.current.kind == metrics.CPUUpdate {
			// In-line OD apply: let it finish, abort at continuation.
			tr.abortPending = true
			return
		}
		c.cancelCurrent()
		c.resolve(tr, model.TxnAbortedDeadline)
		c.dispatch()
		return
	}
	if c.suspended == tr {
		c.suspended = nil
		c.resolve(tr, model.TxnAbortedDeadline)
		return
	}
	// Queued: resolve now, the ready queue drops it lazily.
	c.resolve(tr, model.TxnAbortedDeadline)
}

// onUpdateArrival is step 1-2 of Fig. 2: the update lands in the OS
// queue and, depending on the policy, may immediately claim the CPU.
func (c *Controller) onUpdateArrival(u *model.Update) {
	c.col.UpdateArrived()
	c.traceUpdate(TraceUpdateArrived, u)
	if !c.osq.Offer(u) {
		c.col.UpdateOSDropped()
		c.traceUpdate(TraceUpdateDropped, u)
		return
	}
	if c.current == nil {
		c.dispatch()
	} else if c.current.preemptible && Preempts(c.policy, u.Class) {
		c.preemptRunningTxn()
		c.dispatch()
	}
}

// finish charges the partially executed job at the end of the run.
func (c *Controller) finish(end float64) {
	if j := c.current; j != nil {
		c.charge(j.kind, j.startedAt, end)
		c.sim.Cancel(j.ev)
		c.current = nil
	}
}
