// Package model defines the conceptual model of the paper (§3): the
// database objects, the updates flowing in from external sources, the
// value- and deadline-bearing transactions, and the full parameter set
// of Tables 1–3 with their baseline values.
package model

import (
	"errors"
	"fmt"
)

// Importance classifies a view object or a transaction. The paper
// partitions view data into a low-importance and a high-importance set;
// low-value transactions read low-importance data and high-value
// transactions read high-importance data (§3.2, Fig. 1).
type Importance int

const (
	// Low marks low-importance view data / low-value transactions.
	Low Importance = iota
	// High marks high-importance view data / high-value transactions.
	High
)

// String returns "low" or "high".
func (i Importance) String() string {
	if i == High {
		return "high"
	}
	return "low"
}

// ObjectID identifies a view object. IDs are dense: low-importance
// objects are [0, Nl) and high-importance objects are [Nl, Nl+Nh).
type ObjectID int32

// Update is one element of the external update stream. Each update
// carries a complete new value for exactly one view object (§2:
// complete updates to snapshot views).
type Update struct {
	// Seq is a unique arrival sequence number, used for stable
	// ordering of updates with identical generation times.
	Seq uint64
	// Object is the view object the update refreshes.
	Object ObjectID
	// Class is the importance of the target object.
	Class Importance
	// GenTime is the simulated time at which the external source
	// generated the value (the update's timestamp).
	GenTime float64
	// ArrivalTime is the simulated time at which the update arrived
	// at the database system; ArrivalTime - GenTime is the network
	// age of the update. The strip library's observability layer also
	// recovers nanosecond arrival stamps for queue-wait spans from
	// this axis (the float64 mantissa keeps sub-nanosecond precision
	// at realistic uptimes) rather than carrying a second field.
	ArrivalTime float64
	// Payload is the new value carried by the update. The simulator
	// does not model values and leaves it zero; the strip library
	// carries real data through the same queue structures.
	Payload float64
	// Aux is an opaque application payload carried through the queue
	// untouched (nil in the simulator; the strip library uses it for
	// partial-update field sets).
	Aux any
	// WallGen is the exact wall-clock generation time in Unix
	// nanoseconds (zero in the simulator). The strip library carries it
	// so installed generation timestamps survive replication without
	// the precision loss of the float-seconds GenTime axis.
	WallGen int64
	// Replicated marks an update fed by the replication subsystem; the
	// strip library uses it to account replica lag when the update is
	// installed or dropped.
	Replicated bool
}

// Age returns the update's age at time now, measured from generation.
func (u *Update) Age(now float64) float64 { return now - u.GenTime }

// TxnState tracks a transaction through its lifecycle.
type TxnState int

const (
	// TxnPendingState: arrived, waiting in the ready queue.
	TxnPendingState TxnState = iota
	// TxnRunningState: currently holding the CPU (or preempted with
	// saved progress).
	TxnRunningState
	// TxnCommittedState: finished before its deadline.
	TxnCommittedState
	// TxnAbortedDeadline: aborted because its firm deadline passed or
	// the feasible-deadline test failed.
	TxnAbortedDeadline
	// TxnAbortedStale: aborted because it read a stale object under
	// the abort-on-stale policy.
	TxnAbortedStale
)

// String returns a short human-readable state name.
func (s TxnState) String() string {
	switch s {
	case TxnPendingState:
		return "pending"
	case TxnRunningState:
		return "running"
	case TxnCommittedState:
		return "committed"
	case TxnAbortedDeadline:
		return "aborted-deadline"
	case TxnAbortedStale:
		return "aborted-stale"
	default:
		return fmt.Sprintf("TxnState(%d)", int(s))
	}
}

// Txn is one firm-deadline transaction (§3.4). Execution follows the
// paper's three-stage pattern: PView of the computation, then the view
// reads, then the remaining computation.
type Txn struct {
	// ID is a unique transaction identifier.
	ID uint64
	// Class is low or high value.
	Class Importance
	// Value is the benefit gained if the transaction commits before
	// its deadline; zero value is gained otherwise (firm deadline).
	Value float64
	// ArrivalTime is when the transaction entered the system.
	ArrivalTime float64
	// Deadline is the absolute firm deadline: arrival + execution
	// estimate + slack.
	Deadline float64
	// CompSeconds is the pure computation time in seconds (general
	// data access folded in, per §5.2).
	CompSeconds float64
	// ReadSet lists the view objects the transaction reads, drawn
	// uniformly (with replacement) from its class partition.
	ReadSet []ObjectID
	// PView is the fraction of CompSeconds executed before the view
	// reads.
	PView float64

	// State is the current lifecycle state.
	State TxnState
	// ReadStale records whether any view read observed a stale value.
	ReadStale bool
	// FinishTime is when the transaction committed or aborted.
	FinishTime float64
}

// StalenessCriterion selects how "stale" is defined (§2).
type StalenessCriterion int

const (
	// MaxAge (MA): a value is stale when now - generation time
	// exceeds the maximum age Delta.
	MaxAge StalenessCriterion = iota
	// UnappliedUpdate (UU): a value is stale while an update for the
	// object sits unapplied in the update queue.
	UnappliedUpdate
	// UnappliedUpdateStrict is an extension (§2 "variations"): a
	// value is stale while the newest *received* generation for the
	// object exceeds the installed generation, even if the pending
	// update was dropped from the queue.
	UnappliedUpdateStrict
	// CombinedMAUU is the §2 combination: an object is stale if it is
	// stale under either MA or UU.
	CombinedMAUU
)

// String names the criterion as in the paper.
func (c StalenessCriterion) String() string {
	switch c {
	case MaxAge:
		return "MA"
	case UnappliedUpdate:
		return "UU"
	case UnappliedUpdateStrict:
		return "UU-strict"
	case CombinedMAUU:
		return "MA+UU"
	default:
		return fmt.Sprintf("StalenessCriterion(%d)", int(c))
	}
}

// StaleAction selects what a transaction does upon reading stale data
// (§2).
type StaleAction int

const (
	// StaleIgnore completes the transaction normally; staleness is
	// only recorded in the metrics (§6.1).
	StaleIgnore StaleAction = iota
	// StaleAbort aborts the transaction on its first stale read
	// (§6.2). Under OD the abort happens only if the update queue
	// could not refresh the object.
	StaleAbort
)

// String names the action.
func (a StaleAction) String() string {
	if a == StaleAbort {
		return "abort"
	}
	return "ignore"
}

// QueueOrder selects the update-installation discipline for the update
// queue (§4.2). The queue is kept in generation order, so FIFO
// installs the oldest generation first and LIFO the newest.
type QueueOrder int

const (
	// FIFO installs the oldest-generation queued update first.
	FIFO QueueOrder = iota
	// LIFO installs the newest-generation queued update first.
	LIFO
)

// String returns "FIFO" or "LIFO".
func (o QueueOrder) String() string {
	if o == LIFO {
		return "LIFO"
	}
	return "FIFO"
}

// Params bundles every model parameter from Tables 1–3 plus the
// extension knobs documented in DESIGN.md. Construct it with
// DefaultParams and override fields before calling Validate.
type Params struct {
	// --- Table 1: data and updates ---

	// UpdateRate is the Poisson update arrival rate λu (1/s).
	UpdateRate float64
	// PUpdateLow is the probability an update targets the
	// low-importance partition (pul).
	PUpdateLow float64
	// MeanUpdateAge is the exponential mean network age of updates on
	// arrival (āupdate, seconds).
	MeanUpdateAge float64
	// NLow and NHigh are the partition sizes Nl and Nh.
	NLow, NHigh int

	// --- Table 2: transactions ---

	// TxnRate is the Poisson transaction arrival rate λt (1/s).
	TxnRate float64
	// PTxnLow is the probability a transaction is low value (ptl).
	PTxnLow float64
	// SlackMin and SlackMax bound the uniform slack (seconds).
	SlackMin, SlackMax float64
	// ValueLowMean, ValueHighMean are the normal value means (vl, vh).
	ValueLowMean, ValueHighMean float64
	// ValueLowStd, ValueHighStd are the value standard deviations.
	ValueLowStd, ValueHighStd float64
	// ReadsMean, ReadsStd parameterize the normal draw of the number
	// of view objects read (r̄, σr).
	ReadsMean, ReadsStd float64
	// MaxAgeDelta is the maximum data age Δ for the MA criterion
	// (seconds).
	MaxAgeDelta float64
	// CompMean, CompStd parameterize the normal computation time
	// (x̄, σx, seconds).
	CompMean, CompStd float64
	// PView is the fraction of computation done before view reads.
	PView float64

	// --- Table 3: system ---

	// IPS is the CPU speed in instructions per second.
	IPS float64
	// XLookup is the instruction cost to find a data object.
	XLookup float64
	// XUpdate is the instruction cost to update a data object.
	XUpdate float64
	// XSwitch is the instruction cost of one context switch.
	XSwitch float64
	// XQueue is the proportionality constant for queue insert/remove
	// (cost = XQueue·ln(n)).
	XQueue float64
	// XScan is the per-element cost of scanning the update queue.
	XScan float64
	// OSMax is the OS (kernel) queue capacity in updates.
	OSMax int
	// UQMax is the internal update queue capacity in updates.
	UQMax int
	// FeasibleDeadline aborts transactions that can no longer meet
	// their deadline at every scheduling point.
	FeasibleDeadline bool
	// TxnPreemption allows a newly arrived transaction with a higher
	// value density to preempt the running one (FALSE in the paper's
	// baseline).
	TxnPreemption bool
	// Order is the update-installation discipline (FIFO baseline).
	Order QueueOrder

	// --- Scenario selection ---

	// Staleness is the staleness criterion (MA baseline).
	Staleness StalenessCriterion
	// OnStale is what transactions do on a stale read.
	OnStale StaleAction

	// --- Extensions (DESIGN.md §6) ---

	// CoalesceQueue puts the generation-ordered queue in coalescing
	// mode, the paper's proposed queue holding at most one (the newest)
	// update per object.
	CoalesceQueue bool
	// PartitionedQueues makes the idle-time update process drain
	// high-importance updates before low-importance ones (the §4.2
	// "future study" enhancement).
	PartitionedQueues bool
	// UpdateCPUFraction, for the FC policy, is the long-run CPU share
	// reserved for the update process.
	UpdateCPUFraction float64
	// MetricsWarmup excludes the first MetricsWarmup seconds from all
	// metrics to remove start-up transients (0 in the paper).
	MetricsWarmup float64
	// PeriodicPeriod, when positive, replaces the Poisson update
	// stream with the §2 periodic model: every view object is
	// refreshed once per period (random phases), as in a plant
	// control system. UpdateRate is ignored in that mode.
	PeriodicPeriod float64

	// BurstFactor, when > 1, makes the update stream bursty: a
	// Markov-modulated Poisson source whose burst-phase rate is
	// BurstFactor times its quiet-phase rate, holding UpdateRate as
	// the long-run average. BurstQuietMean and BurstOnMean are the
	// mean phase durations in seconds (defaults 4 and 1).
	BurstFactor    float64
	BurstQuietMean float64
	BurstOnMean    float64

	// DiskResident enables the §7 disk-resident extension: view
	// object accesses go through an LRU buffer pool and a miss stalls
	// the CPU for IOSeconds.
	DiskResident bool
	// BufferPoolPages is the buffer pool capacity in pages (one view
	// object per page).
	BufferPoolPages int
	// IOSeconds is the stall per buffer pool miss.
	IOSeconds float64
}

// DefaultParams returns the baseline settings of Tables 1–3.
func DefaultParams() Params {
	return Params{
		UpdateRate:    400,
		PUpdateLow:    0.5,
		MeanUpdateAge: 0.1,
		NLow:          500,
		NHigh:         500,

		TxnRate:       10,
		PTxnLow:       0.5,
		SlackMin:      0.1,
		SlackMax:      1.0,
		ValueLowMean:  1.0,
		ValueHighMean: 2.0,
		ValueLowStd:   0.5,
		ValueHighStd:  0.5,
		ReadsMean:     2.0,
		ReadsStd:      1.0,
		MaxAgeDelta:   7.0,
		CompMean:      0.12,
		CompStd:       0.01,
		PView:         0.0,

		IPS:              50e6,
		XLookup:          4000,
		XUpdate:          20000,
		XSwitch:          0,
		XQueue:           0,
		XScan:            0,
		OSMax:            4000,
		UQMax:            5600,
		FeasibleDeadline: true,
		TxnPreemption:    false,
		Order:            FIFO,

		Staleness: MaxAge,
		OnStale:   StaleIgnore,

		UpdateCPUFraction: 0.2,

		BufferPoolPages: 500,
		IOSeconds:       0.01,
	}
}

// Validate checks the parameter set for internal consistency.
func (p *Params) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(p.UpdateRate >= 0, "UpdateRate %v must be >= 0", p.UpdateRate)
	check(p.PUpdateLow >= 0 && p.PUpdateLow <= 1, "PUpdateLow %v must be in [0,1]", p.PUpdateLow)
	check(p.MeanUpdateAge >= 0, "MeanUpdateAge %v must be >= 0", p.MeanUpdateAge)
	check(p.NLow >= 0, "NLow %d must be >= 0", p.NLow)
	check(p.NHigh >= 0, "NHigh %d must be >= 0", p.NHigh)
	check(p.NLow+p.NHigh > 0, "NLow+NHigh must be positive")
	check(p.TxnRate >= 0, "TxnRate %v must be >= 0", p.TxnRate)
	check(p.PTxnLow >= 0 && p.PTxnLow <= 1, "PTxnLow %v must be in [0,1]", p.PTxnLow)
	check(p.SlackMin >= 0, "SlackMin %v must be >= 0", p.SlackMin)
	check(p.SlackMax >= p.SlackMin, "SlackMax %v must be >= SlackMin %v", p.SlackMax, p.SlackMin)
	check(p.ReadsMean >= 0, "ReadsMean %v must be >= 0", p.ReadsMean)
	check(p.MaxAgeDelta > 0, "MaxAgeDelta %v must be > 0", p.MaxAgeDelta)
	check(p.CompMean > 0, "CompMean %v must be > 0", p.CompMean)
	check(p.PView >= 0 && p.PView <= 1, "PView %v must be in [0,1]", p.PView)
	check(p.IPS > 0, "IPS %v must be > 0", p.IPS)
	check(p.XLookup >= 0, "XLookup %v must be >= 0", p.XLookup)
	check(p.XUpdate >= 0, "XUpdate %v must be >= 0", p.XUpdate)
	check(p.XSwitch >= 0, "XSwitch %v must be >= 0", p.XSwitch)
	check(p.XQueue >= 0, "XQueue %v must be >= 0", p.XQueue)
	check(p.XScan >= 0, "XScan %v must be >= 0", p.XScan)
	check(p.OSMax > 0, "OSMax %d must be > 0", p.OSMax)
	check(p.UQMax > 0, "UQMax %d must be > 0", p.UQMax)
	check(p.UpdateCPUFraction >= 0 && p.UpdateCPUFraction <= 1,
		"UpdateCPUFraction %v must be in [0,1]", p.UpdateCPUFraction)
	check(p.MetricsWarmup >= 0, "MetricsWarmup %v must be >= 0", p.MetricsWarmup)
	check(p.PeriodicPeriod >= 0, "PeriodicPeriod %v must be >= 0", p.PeriodicPeriod)
	check(p.BurstFactor == 0 || p.BurstFactor >= 1, "BurstFactor %v must be 0 (off) or >= 1", p.BurstFactor)
	check(p.BurstQuietMean >= 0, "BurstQuietMean %v must be >= 0", p.BurstQuietMean)
	check(p.BurstOnMean >= 0, "BurstOnMean %v must be >= 0", p.BurstOnMean)
	if p.DiskResident {
		check(p.BufferPoolPages > 0, "BufferPoolPages %d must be > 0 when DiskResident", p.BufferPoolPages)
		check(p.IOSeconds >= 0, "IOSeconds %v must be >= 0", p.IOSeconds)
	}
	return errors.Join(errs...)
}

// UsesMaxAge reports whether the staleness criterion includes a
// maximum-age component, i.e. whether queued updates older than Delta
// are worthless and can be discarded.
func (p *Params) UsesMaxAge() bool {
	return p.Staleness == MaxAge || p.Staleness == CombinedMAUU
}

// NumObjects returns the total view object count Nl + Nh.
func (p *Params) NumObjects() int { return p.NLow + p.NHigh }

// ObjectClass returns the importance of an object ID under the dense
// layout ([0,Nl) low, [Nl,Nl+Nh) high).
func (p *Params) ObjectClass(id ObjectID) Importance {
	if int(id) < p.NLow {
		return Low
	}
	return High
}

// Seconds converts an instruction count to seconds at the configured
// CPU speed.
func (p *Params) Seconds(instructions float64) float64 {
	return instructions / p.IPS
}

// InstallCost returns the instruction cost of installing one update:
// the index lookup plus the update itself (§5.3).
func (p *Params) InstallCost() float64 { return p.XLookup + p.XUpdate }
