package strip

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/model"
)

// State is a transaction's terminal outcome.
type State int

const (
	// Committed: the function returned nil before the deadline.
	Committed State = iota
	// AbortedDeadline: the firm deadline passed (before or during
	// execution), or the feasible-deadline test failed.
	AbortedDeadline
	// AbortedStale: a stale view read under the Abort action.
	AbortedStale
	// Failed: the transaction function returned an unrelated error,
	// or the database closed.
	Failed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Committed:
		return "committed"
	case AbortedDeadline:
		return "aborted-deadline"
	case AbortedStale:
		return "aborted-stale"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// TxnSpec describes a transaction submission.
type TxnSpec struct {
	// Name is an optional label for diagnostics.
	Name string
	// Value is the benefit of committing before the deadline; it
	// drives value-density scheduling against other transactions.
	Value float64
	// Deadline is the firm deadline. A zero deadline means "no
	// deadline" and is normalized to one hour from submission.
	Deadline time.Time
	// Estimate, when positive, is the expected execution time: value
	// density is Value per second of it, and the feasible-deadline abort
	// uses it. Without one the density is Value·10¹², ahead of any
	// estimated transaction's.
	Estimate time.Duration
	// Func is the transaction body. It runs on the scheduler
	// goroutine; it must not call Exec (no nesting) and must return
	// any error received from Tx methods.
	Func func(tx *Tx) error
}

// Result is a transaction's outcome.
type Result struct {
	// State is the terminal state.
	State State
	// ReadStale reports whether any view read observed a stale value.
	ReadStale bool
	// StaleReads lists the stale objects read, under the Warn action.
	StaleReads []string
	// Err is the error that ended a non-committed transaction.
	Err error
	// Started and Finished bound the execution (zero if never run).
	Started, Finished time.Time
}

// Committed reports whether the transaction committed.
func (r Result) Committed() bool { return r.State == Committed }

// Tx is the handle a transaction function uses to access the
// database. It is only valid during the function's execution.
type Tx struct {
	db         *DB
	spec       *TxnSpec
	deadline   time.Time
	readStale  bool
	staleReads []string
	writes     map[string]float64
	abortErr   error
	active     bool
}

// Exec submits a transaction and blocks until it commits or aborts.
// It must not be called from inside a transaction function. It takes no
// lock: a submitter never waits out an install run to be counted, since
// a goroutine the scheduler's unlock readies can sit behind the busy
// scheduler until the runtime preempts it (DESIGN §4). A submission
// that Close overtakes ends Failed with ErrClosed and is counted so,
// like every other admitted one.
func (db *DB) Exec(spec TxnSpec) Result {
	if spec.Func == nil {
		return Result{State: Failed, Err: errors.New("strip: TxnSpec.Func is nil")}
	}
	if db.closed.Load() {
		return Result{State: Failed, Err: ErrClosed}
	}
	now := db.now()
	if spec.Deadline.IsZero() {
		spec.Deadline = now.Add(time.Hour)
	}
	req := &txnReq{spec: spec, res: make(chan Result, 1), enqueued: now}
	req.ID = db.submitted.Add(1)
	select {
	case db.txnCh <- req:
	case <-db.stopCh:
		return db.finishClosed(req)
	}
	select {
	case res := <-req.res:
		return res
	case <-db.done:
		// The scheduler exited; it drained the queue first, so a
		// result may still be buffered.
		select {
		case res := <-req.res:
			return res
		default:
			// Sent after the scheduler's last drain: nobody will run it.
			return db.finishClosed(req)
		}
	}
}

// finishClosed ends a submission the scheduler will never see, because
// Close overtook it, as Failed with ErrClosed — counted in the ledger
// like the ones the scheduler fails at shutdown.
func (db *DB) finishClosed(req *txnReq) Result {
	res := Result{State: Failed, Err: ErrClosed}
	db.finish(req, res)
	return res
}

// execute runs one admitted transaction on the scheduler goroutine.
func (db *DB) execute(req *txnReq) {
	db.answered = true
	now := db.now()
	if db.hopeless(req, now) {
		db.finish(req, Result{State: AbortedDeadline, Err: ErrDeadlineExceeded})
		return
	}
	tx := &Tx{
		db:       db,
		spec:     &req.spec,
		deadline: req.spec.Deadline,
		active:   true,
	}
	started := now
	err := req.spec.Func(tx)
	tx.active = false
	finished := db.now()

	res := Result{
		ReadStale:  tx.readStale,
		StaleReads: tx.staleReads,
		Started:    started,
		Finished:   finished,
	}
	switch {
	case tx.abortErr != nil:
		// A sticky abort (stale read under Abort, or deadline hit
		// mid-run) dooms the transaction even if Func returned nil.
		res.Err = tx.abortErr
		if errors.Is(tx.abortErr, ErrStaleRead) {
			res.State = AbortedStale
		} else {
			res.State = AbortedDeadline
		}
	case err != nil:
		res.Err = err
		res.State = Failed
	case finished.After(tx.deadline):
		res.Err = ErrDeadlineExceeded
		res.State = AbortedDeadline
	default:
		if cerr := tx.commit(); cerr != nil {
			res.Err = cerr
			res.State = Failed
		} else {
			res.State = Committed
		}
	}
	db.finish(req, res)
}

// commit logs and applies the transaction's buffered general-data
// writes. The WAL append, the in-memory apply and the replication
// publish happen under one critical section so Checkpoint and
// ReplicaSnapshot see a consistent cut (see applyWritesLocked).
func (tx *Tx) commit() error {
	if len(tx.writes) == 0 {
		return nil
	}
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	defer tx.db.publishStatsLocked()
	return tx.db.applyWritesLocked(tx.writes)
}

// checkState validates that the handle is usable and the deadline has
// not passed.
func (tx *Tx) checkState() error {
	if !tx.active {
		return errors.New("strip: Tx used outside its transaction function")
	}
	if tx.abortErr != nil {
		return tx.abortErr
	}
	if tx.db.now().After(tx.deadline) {
		tx.abortErr = ErrDeadlineExceeded
		return tx.abortErr
	}
	return nil
}

// Read returns a view object's current value, applying the configured
// staleness criterion and action. A Read is a cooperative scheduling
// point: pending updates are received, and under UpdatesFirst /
// SplitUpdates they are installed before the value is returned
// (update "preemption"); under OnDemand a stale object is refreshed
// from the queue if possible.
func (tx *Tx) Read(name string) (Entry, error) {
	if err := tx.checkState(); err != nil {
		return Entry{}, err
	}
	db := tx.db
	ref, ok := db.lookup(name)
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrUnknownObject, name)
	}
	id := ref.id

	// Receive arrivals, then put the policy table's question with this
	// transaction as the ready one: whatever it would install first
	// (everything under UpdatesFirst, the High class under
	// SplitUpdates) preempts the transaction at this yield point.
	db.drainIngest()
	for db.installRun(true, installRunLen) > 0 {
	}

	e := db.readEntry(id)
	if e.Stale && db.cfg.Policy.RefreshesOnRead() && db.refreshOnDemand(id, ref.class) {
		e = db.readEntry(id)
	}

	if e.Stale {
		tx.readStale = true
		switch db.cfg.OnStale {
		case Warn:
			tx.staleReads = append(tx.staleReads, name)
		case Abort:
			tx.abortErr = ErrStaleRead
			return e, ErrStaleRead
		}
	}
	return e, nil
}

// readEntry copies a view object's entry and evaluates its staleness
// under one hold of the lock and one clock reading.
func (db *DB) readEntry(id model.ObjectID) Entry {
	now := db.now()
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.entryLocked(id, now.UnixNano())
}

// Get reads general data, observing the transaction's own writes.
func (tx *Tx) Get(key string) (float64, bool) {
	if tx.checkState() != nil {
		return 0, false
	}
	if v, ok := tx.writes[key]; ok {
		return v, true
	}
	tx.db.mu.RLock()
	v, ok := tx.db.general[key]
	tx.db.mu.RUnlock()
	return v, ok
}

// Set buffers a general-data write, applied atomically at commit. With
// a WAL configured, a commit no log record can carry — a key over
// 65 535 bytes, or writes encoding to more than 8 MiB — ends Failed
// with nothing logged or applied.
func (tx *Tx) Set(key string, v float64) {
	if tx.checkState() != nil {
		return
	}
	if tx.writes == nil {
		tx.writes = make(map[string]float64)
	}
	tx.writes[key] = v
}

// Deadline returns the transaction's firm deadline.
func (tx *Tx) Deadline() time.Time { return tx.deadline }

// Remaining returns the time left until the deadline.
func (tx *Tx) Remaining() time.Duration { return tx.deadline.Sub(tx.db.now()) }
