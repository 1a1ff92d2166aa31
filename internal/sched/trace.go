package sched

import (
	"fmt"
	"io"

	"repro/internal/model"
)

// TraceKind labels a scheduling event for the optional trace stream.
type TraceKind int

const (
	// TraceTxnArrived: a transaction entered the system.
	TraceTxnArrived TraceKind = iota
	// TraceTxnStarted: a transaction was dispatched for the first time.
	TraceTxnStarted
	// TraceTxnPreempted: the running transaction was suspended by
	// update work (UF/SU).
	TraceTxnPreempted
	// TraceTxnResumed: a suspended transaction took the CPU back.
	TraceTxnResumed
	// TraceTxnCommitted: a transaction committed before its deadline.
	TraceTxnCommitted
	// TraceTxnAbortedDeadline: a firm-deadline or feasibility abort.
	TraceTxnAbortedDeadline
	// TraceTxnAbortedStale: an abort caused by a stale read.
	TraceTxnAbortedStale
	// TraceUpdateArrived: an update reached the OS queue.
	TraceUpdateArrived
	// TraceUpdateInstalled: a value was written into the database.
	TraceUpdateInstalled
	// TraceUpdateSkipped: an update was discarded as unworthy or
	// superseded.
	TraceUpdateSkipped
	// TraceUpdateExpired: a queued update exceeded the maximum age.
	TraceUpdateExpired
	// TraceUpdateDropped: an update was rejected by a full queue.
	TraceUpdateDropped
)

// String returns a stable lowercase event name.
func (k TraceKind) String() string {
	switch k {
	case TraceTxnArrived:
		return "txn-arrived"
	case TraceTxnStarted:
		return "txn-started"
	case TraceTxnPreempted:
		return "txn-preempted"
	case TraceTxnResumed:
		return "txn-resumed"
	case TraceTxnCommitted:
		return "txn-committed"
	case TraceTxnAbortedDeadline:
		return "txn-aborted-deadline"
	case TraceTxnAbortedStale:
		return "txn-aborted-stale"
	case TraceUpdateArrived:
		return "update-arrived"
	case TraceUpdateInstalled:
		return "update-installed"
	case TraceUpdateSkipped:
		return "update-skipped"
	case TraceUpdateExpired:
		return "update-expired"
	case TraceUpdateDropped:
		return "update-dropped"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one scheduling event.
type TraceEvent struct {
	// Time is the simulated time of the event.
	Time float64
	// Kind classifies the event.
	Kind TraceKind
	// Txn is the transaction ID for txn-* events, zero otherwise.
	Txn uint64
	// Object is the view object for update-* events, -1 otherwise.
	Object model.ObjectID
	// Seq is the update's arrival sequence number for update-* events
	// (with Object it identifies the update, so a trace yields every
	// update's fate), zero otherwise.
	Seq uint64
}

// Tracer receives scheduling events during a run. Implementations
// must be fast; they run inline with the simulation.
type Tracer interface {
	Trace(TraceEvent)
}

// WriterTracer writes one line per event to an io.Writer.
type WriterTracer struct {
	W io.Writer
}

// Trace formats the event as "time kind txn=N obj=M".
func (t WriterTracer) Trace(e TraceEvent) {
	fmt.Fprintf(t.W, "%.6f %s txn=%d obj=%d\n", e.Time, e.Kind, e.Txn, e.Object)
}

// CountingTracer tallies events by kind; useful in tests and quick
// diagnostics.
type CountingTracer struct {
	Counts map[TraceKind]int
}

// NewCountingTracer returns an empty counting tracer.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{Counts: make(map[TraceKind]int)}
}

// Trace increments the event's counter.
func (t *CountingTracer) Trace(e TraceEvent) { t.Counts[e.Kind]++ }

// traceTxn emits a transaction event if tracing is enabled.
func (c *Controller) traceTxn(kind TraceKind, tr *txnRun) {
	if c.tracer == nil {
		return
	}
	c.tracer.Trace(TraceEvent{Time: c.sim.Now(), Kind: kind, Txn: tr.txn.ID, Object: -1})
}

// traceUpdate emits an update event if tracing is enabled.
func (c *Controller) traceUpdate(kind TraceKind, u *model.Update) {
	if c.tracer == nil {
		return
	}
	c.tracer.Trace(TraceEvent{Time: c.sim.Now(), Kind: kind, Object: u.Object, Seq: u.Seq})
}
