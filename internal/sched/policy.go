// Package sched implements the heart of the paper: the controller of
// §3.1 that multiplexes a single CPU between the update-installation
// process and firm-deadline transactions, and the four scheduling
// algorithms of §4 — Updates First (UF), Transactions First (TF),
// Split Updates (SU) and On Demand (OD) — plus the Fixed CPU fraction
// (FC) policy sketched as future work in §7.
//
// The controller is driven by the deterministic event kernel in
// internal/sim: every piece of CPU work (a transaction computation
// segment, a view-object lookup, a queue receive, an update install)
// is a "job" with an instruction budget converted to seconds, and
// scheduling decisions happen at job boundaries and at arrivals,
// exactly as in the conceptual model.
package sched

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Policy selects the scheduling algorithm of §4.
type Policy int

const (
	// UF (Updates First, §4.1) installs every update the moment it
	// arrives, preempting any running transaction; no update queue is
	// used.
	UF Policy = iota
	// TF (Transactions First, §4.2) gives transactions strict
	// priority; updates are received into the update queue and
	// installed only when no transactions are runnable.
	TF
	// SU (Split Updates, §4.3) treats updates to high-importance
	// objects like UF and updates to low-importance objects like TF.
	SU
	// OD (On Demand, §4.4) is TF plus in-line refresh: a transaction
	// that reads a stale object first searches the update queue and
	// applies a suitable pending update.
	OD
	// FC (Fixed CPU fraction, §7 future work) reserves a configured
	// long-run CPU share for the update process using deficit
	// accounting, with no preemption.
	FC
)

// Policies lists the four algorithms evaluated in the paper, in the
// order the figures present them.
var Policies = []Policy{UF, TF, SU, OD}

// AllPolicies additionally includes the FC extension.
var AllPolicies = []Policy{UF, TF, SU, OD, FC}

// String returns the paper's abbreviation for the policy.
func (p Policy) String() string {
	switch p {
	case UF:
		return "UF"
	case TF:
		return "TF"
	case SU:
		return "SU"
	case OD:
		return "OD"
	case FC:
		return "FC"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a (case-insensitive) policy abbreviation.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "UF":
		return UF, nil
	case "TF":
		return TF, nil
	case "SU":
		return SU, nil
	case "OD":
		return OD, nil
	case "FC":
		return FC, nil
	default:
		return 0, fmt.Errorf("sched: unknown policy %q (want UF, TF, SU, OD or FC)", s)
	}
}

// usesUpdateQueue reports whether the policy maintains an internal
// update queue. UF installs straight from the OS queue (§4.1).
func (p Policy) usesUpdateQueue() bool { return p != UF }

// RefreshesOnRead reports whether a transaction reading a stale object
// first searches the update queue and applies a suitable pending
// update in-line (§4.4).
func (p Policy) RefreshesOnRead() bool { return p == OD }

// Action is the controller's next move at a scheduling point.
type Action int

const (
	// Idle: nothing is runnable.
	Idle Action = iota
	// InstallHigh installs the next queued high-importance update.
	InstallHigh
	// InstallLow installs the next queued low-importance update.
	InstallLow
	// InstallMerged installs the next queued update of either class,
	// in generation order across both.
	InstallMerged
	// RunTxn runs (or resumes) the best ready transaction.
	RunTxn
)

// Next is the §4 policy table: given which importance classes have
// updates waiting and whether a transaction is ready, it names the
// work the single CPU does next. It is pure — the simulator's
// controller and the live engine's scheduler both call it at every
// scheduling point and keep only their clock and I/O. Under UF the
// simulator's backlog is its OS queue, passed as lowQueued. FC answers
// as transactions-first here; the simulator, which owns the CPU-share
// ledger, overrides RunTxn while the update process is behind its
// reservation.
func Next(p Policy, highQueued, lowQueued, txnReady bool) Action {
	switch {
	case p == UF && (highQueued || lowQueued):
		return InstallMerged
	case p == SU && highQueued:
		return InstallHigh
	case txnReady:
		return RunTxn
	case p == SU && lowQueued:
		return InstallLow
	case highQueued || lowQueued:
		return InstallMerged
	default:
		return Idle
	}
}

// Preempts reports whether an update of the given class takes the CPU
// from a running transaction — at arrival in the simulator, at the
// next view-read point in the live engine: exactly when the table
// installs that class ahead of a ready transaction.
func Preempts(p Policy, class model.Importance) bool {
	return Next(p, class == model.High, class == model.Low, true) != RunTxn
}
