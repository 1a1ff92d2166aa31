package sched

import (
	"testing"

	"repro/internal/model"
	"repro/internal/uqueue"
)

func mkRun(id uint64, value, estRemaining float64) *txnRun {
	return &txnRun{
		Rank:         uqueue.Rank{ID: id},
		txn:          &model.Txn{ID: id, Value: value},
		estRemaining: estRemaining,
	}
}

func TestReadyQueueDensityOrder(t *testing.T) {
	rq := newReadyQueue()
	rq.Push(mkRun(1, 1.0, 0.1)) // density 10
	rq.Push(mkRun(2, 2.0, 0.1)) // density 20
	rq.Push(mkRun(3, 1.0, 0.2)) // density 5
	want := []uint64{2, 1, 3}
	for i, id := range want {
		tr := rq.Pop()
		if tr == nil || tr.txn.ID != id {
			t.Fatalf("pop %d: got %v, want txn %d", i, tr, id)
		}
	}
	if rq.Pop() != nil {
		t.Fatal("empty queue should pop nil")
	}
}

func TestReadyQueueTieBreakByID(t *testing.T) {
	rq := newReadyQueue()
	rq.Push(mkRun(5, 1.0, 0.1))
	rq.Push(mkRun(2, 1.0, 0.1))
	rq.Push(mkRun(9, 1.0, 0.1))
	for _, id := range []uint64{2, 5, 9} {
		if got := rq.Pop().txn.ID; got != id {
			t.Fatalf("tie-break order wrong: got %d, want %d", got, id)
		}
	}
}

func TestReadyQueueLazyRemoval(t *testing.T) {
	rq := newReadyQueue()
	a := mkRun(1, 5.0, 0.1)
	b := mkRun(2, 1.0, 0.1)
	rq.Push(a)
	rq.Push(b)
	a.txn.State = model.TxnAbortedDeadline // resolved while queued
	if got := rq.Pop(); got != b {
		t.Fatalf("Pop returned %v, want the unresolved txn", got.txn.ID)
	}
	if rq.Pop() != nil {
		t.Fatal("resolved txn must be dropped")
	}
}

// TestReadyQueueLenCountsResolved pins the lazy discard the simulator
// keeps: a transaction resolved while queued stays counted by Len — so
// the policy table still sees a transaction ready — until a Pop meets it.
func TestReadyQueueLenCountsResolved(t *testing.T) {
	rq := newReadyQueue()
	a := mkRun(1, 5.0, 0.1)
	rq.Push(a)
	if rq.Top() != a || rq.Len() != 1 {
		t.Fatal("Top should return the top without removing it")
	}
	a.txn.State = model.TxnCommittedState
	if rq.Len() != 1 {
		t.Fatal("a resolved transaction leaves the queue only when a Pop meets it")
	}
	if rq.Pop() != nil || rq.Len() != 0 {
		t.Fatal("Pop should discard the resolved transaction")
	}
}

func TestReadyQueueZeroRemaining(t *testing.T) {
	rq := newReadyQueue()
	rq.Push(mkRun(1, 1.0, 0)) // infinite density guarded
	rq.Push(mkRun(2, 100.0, 1.0))
	if got := rq.Pop().txn.ID; got != 1 {
		t.Fatalf("zero-remaining txn should have maximal density, got %d", got)
	}
}

func TestTxnRunResolved(t *testing.T) {
	tr := mkRun(1, 1, 1)
	if tr.resolved() {
		t.Fatal("pending txn reported resolved")
	}
	for _, st := range []model.TxnState{
		model.TxnCommittedState, model.TxnAbortedDeadline, model.TxnAbortedStale,
	} {
		tr.txn.State = st
		if !tr.resolved() {
			t.Fatalf("state %v should be resolved", st)
		}
	}
	tr.txn.State = model.TxnRunningState
	if tr.resolved() {
		t.Fatal("running txn reported resolved")
	}
}
