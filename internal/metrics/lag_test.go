package metrics

import (
	"testing"

	"repro/internal/model"
)

// installed is a catalog stand-in: the generation each object holds.
type installed map[model.ObjectID]int64

func (c installed) gen(obj model.ObjectID) int64 { return c[obj] }

func TestReplicaLagMAAndUU(t *testing.T) {
	var l ReplicaLag
	cat := installed{}

	// Nothing seen: zero lag everywhere, and no accounts.
	if ma, uu := l.Aggregate(cat.gen); ma != 0 || uu != 0 {
		t.Fatalf("empty tracker lag = %v, %d", ma, uu)
	}
	if ma, uu := l.Object(7, 0); ma != 0 || uu != 0 {
		t.Fatalf("unknown object lag = %v, %d", ma, uu)
	}
	if l.accts != nil {
		t.Fatalf("an empty tracker holds %d accounts", len(l.accts))
	}

	// Two updates received for object 0, none installed: UU 2, MA is
	// the newest received generation less the installed one (0).
	l.Received(0, 10e9)
	l.Received(0, 12e9)
	if ma, uu := l.Object(0, cat[0]); ma != 12 || uu != 2 {
		t.Fatalf("object 0 lag = %v, %d, want 12, 2", ma, uu)
	}

	// Install the older generation: backlog shrinks, MA narrows.
	cat[0] = 10e9
	l.Settled(0)
	if ma, uu := l.Object(0, cat[0]); ma != 2 || uu != 1 {
		t.Fatalf("after partial install lag = %v, %d, want 2, 1", ma, uu)
	}

	// Install the newest: caught up.
	cat[0] = 12e9
	l.Settled(0)
	if ma, uu := l.Object(0, cat[0]); ma != 0 || uu != 0 {
		t.Fatalf("after full install lag = %v, %d, want 0, 0", ma, uu)
	}

	// A second object contributes to the aggregate max.
	l.Received(3, 100e9)
	l.Received(0, 13e9)
	if ma, uu := l.Aggregate(cat.gen); ma != 100 || uu != 2 {
		t.Fatalf("aggregate = %v, %d, want 100, 2", ma, uu)
	}
}

func TestReplicaLagRemoved(t *testing.T) {
	var l ReplicaLag
	l.Received(1, 5e9)
	l.Received(1, 6e9)

	// A coalesced drop lowers UU but not MA: the replica still has not
	// installed generation 6.
	l.Settled(1)
	if ma, uu := l.Object(1, 0); ma != 6 || uu != 1 {
		t.Fatalf("after settle lag = %v, %d, want 6, 1", ma, uu)
	}

	// Clamp: settles never drive the count negative, also for an object
	// that has no account.
	l.Settled(1)
	l.Settled(1)
	l.Settled(9)
	if _, uu := l.Object(1, 0); uu != 0 {
		t.Fatalf("clamped UU = %d, want 0", uu)
	}
	if _, uu := l.Aggregate(installed{}.gen); uu != 0 {
		t.Fatalf("clamped total = %d, want 0", uu)
	}

	// Installing the newest generation clears MA even after drops.
	if ma, _ := l.Object(1, 6e9); ma != 0 {
		t.Fatalf("MA after catch-up = %v, want 0", ma)
	}
}

func TestReplicaLagOutOfOrderInstall(t *testing.T) {
	var l ReplicaLag
	l.Received(model.ObjectID(2), 20e9)
	l.Settled(2)
	// An older receipt must not regress the newest received generation;
	// the catalog keeps the newer installed one (the worthiness check).
	l.Received(2, 15e9)
	l.Settled(2)
	if ma, uu := l.Object(2, 20e9); ma != 0 || uu != 0 {
		t.Fatalf("out-of-order install lag = %v, %d, want 0, 0", ma, uu)
	}
	if ma, _ := l.Object(2, 15e9); ma != 5 {
		t.Fatalf("MA against the older generation = %v, want 5 (the newest receipt is 20)", ma)
	}
}

// TestReplicaLagLocalInstall: a local install newer than everything
// received leaves the object fresh under MA, with no call into the
// tracker — MA reads the installed generation.
func TestReplicaLagLocalInstall(t *testing.T) {
	var l ReplicaLag
	l.Received(2, 20e9)
	l.Settled(2)
	if ma, _ := l.Object(2, 25e9); ma != 0 {
		t.Fatalf("MA under a newer local install = %v, want 0", ma)
	}
}

// TestReplicaLagForget: forgetting an object's receipts zeroes its MA
// until the next receipt, and keeps its backlog for the settles still
// to come.
func TestReplicaLagForget(t *testing.T) {
	var l ReplicaLag
	l.Received(0, 20e9)
	l.Forget(0)
	l.Forget(5) // no account: nothing to forget
	if ma, uu := l.Object(0, 10e9); ma != 0 || uu != 1 {
		t.Fatalf("after Forget lag = %v, %d, want 0, 1", ma, uu)
	}
	l.Received(0, noReceipt)
	if ma, uu := l.Object(0, 10e9); ma != 0 || uu != 2 {
		t.Fatalf("after a backlog-only receipt lag = %v, %d, want 0, 2", ma, uu)
	}
	l.Received(0, 15e9)
	if ma, _ := l.Object(0, 10e9); ma != 5 {
		t.Fatalf("after a new receipt MA = %v, want 5", ma)
	}
}
