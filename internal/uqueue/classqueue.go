package uqueue

import "repro/internal/model"

// ClassQueue is the scheduler-facing update queue, shared by the
// simulator's controller and the live engine: one update queue per
// importance class behind a merged, generation-ordered view with a
// joint capacity bound. SU needs the split to drain the high partition
// eagerly; UF, TF and OD see a single merged queue (the paper's
// baseline), or — with the simulator's PartitionedQueues extension —
// the same class-priority drain as SU.
type ClassQueue struct {
	q   [2]*GenQueue // indexed by model.Importance
	cap int
}

// NewClassQueue builds the queue pair, in coalescing mode when coalesce
// is set. capacity bounds the two classes jointly (<= 0 means
// unbounded); seed makes the internal balancing deterministic.
func NewClassQueue(capacity int, seed uint64, coalesce bool) *ClassQueue {
	mk := NewGenQueue
	if coalesce {
		mk = newCoalescingQueue
	}
	return &ClassQueue{
		q:   [2]*GenQueue{mk(0, seed), mk(0, seed+1)},
		cap: capacity,
	}
}

// Insert adds u to its class queue and enforces the joint capacity. It
// returns what left the queue because of u, by cause: superseded lost
// to a newer generation of its own object (coalescing only; see
// GenQueue.Insert), and evicted is the globally oldest update, dropped
// on overflow. Either may be u.
func (cq *ClassQueue) Insert(u *model.Update) (superseded, evicted *model.Update) {
	superseded, _ = cq.q[u.Class].Insert(u)
	if cq.cap > 0 && cq.Len() > cq.cap {
		evicted = cq.Pop(model.FIFO, -1)
	}
	return superseded, evicted
}

// Len returns the total queued updates across both classes.
func (cq *ClassQueue) Len() int { return cq.q[model.Low].Len() + cq.q[model.High].Len() }

// LenClass returns the queued updates for one class.
func (cq *ClassQueue) LenClass(class model.Importance) int { return cq.q[class].Len() }

// Pop removes the next update to install: the oldest (FIFO) or newest
// (LIFO) of one class, or — class < 0, the merged view — of both
// classes together. It returns nil when there is none.
func (cq *ClassQueue) Pop(order model.QueueOrder, class int) *model.Update {
	var q *GenQueue
	if class >= 0 {
		q = cq.q[class]
	} else {
		q = cq.mergedHead(order)
	}
	if order == model.FIFO {
		return q.PopOldest()
	}
	return q.PopNewest()
}

// mergedHead returns the class queue holding the merged view's next
// update. Only when both classes are backlogged are their heads
// compared.
func (cq *ClassQueue) mergedHead(order model.QueueOrder) *GenQueue {
	lo, hi := cq.q[model.Low], cq.q[model.High]
	switch {
	case hi.Len() == 0:
		return lo
	case lo.Len() == 0:
		return hi
	case order == model.FIFO && less(lo.PeekOldest(), hi.PeekOldest()),
		order == model.LIFO && less(hi.PeekNewest(), lo.PeekNewest()):
		return lo
	default:
		return hi
	}
}

// NewestFor returns the newest queued update for the object.
func (cq *ClassQueue) NewestFor(class model.Importance, id model.ObjectID) *model.Update {
	return cq.q[class].NewestFor(id)
}

// TakeFor removes every queued update for the object, returning the
// newest and the superseded remainder.
func (cq *ClassQueue) TakeFor(class model.Importance, id model.ObjectID) (*model.Update, []*model.Update) {
	return cq.q[class].TakeFor(id)
}

// DiscardOlderGen removes every update generated before cutoff from
// both classes and returns them per class (indexed by
// model.Importance), each in generation order.
func (cq *ClassQueue) DiscardOlderGen(cutoff float64) [2][]*model.Update {
	return [2][]*model.Update{
		cq.q[model.Low].DiscardOlderGen(cutoff),
		cq.q[model.High].DiscardOlderGen(cutoff),
	}
}
