package uqueue

import (
	"math"

	"repro/internal/model"
)

// GenQueue is the paper's baseline update queue: all received,
// unapplied updates ordered by generation time, with a per-object
// index used by On Demand, bounded at capacity (oldest dropped on
// overflow).
//
// A feed mostly arrives in generation order, and an ordered arrival
// needs no search: an arrival that is not older than the newest one
// that came in order is appended to a doubly-linked list (head oldest,
// tail newest), and only an arrival older than the list's tail goes
// into the treap. List and treap are each sorted, so the queue's oldest
// (newest) update is the smaller (larger) of the list's end and the
// treap's extreme. Both hold the same recycled nodes; a list node is
// told apart by its zero priority.
//
// In coalescing mode (newCoalescingQueue) the queue is the paper's
// proposed coalescing queue (§4.2, §7): for complete updates to
// snapshot views only the newest update per object matters, so an
// object's chain in the index holds at most one node.
type GenQueue struct {
	t          *treap
	head, tail *node
	listLen    int
	// heads is the per-object index: heads[id] starts the chain of
	// nodes holding the object's queued updates, most recently inserted
	// first, linked through node.objNext/objPrev. ObjectIDs are dense
	// in both engines, so the index is a slice: one word per object
	// ever seen, nothing to allocate when an update is queued and
	// nothing to delete when an object's chain empties.
	heads []*node
	cap   int
	// coalesce keeps at most the newest update per object.
	coalesce bool
	// treapOnly sends every arrival into the treap: the reference the
	// equivalence tests compare the list against.
	treapOnly bool
}

// NewGenQueue returns a queue bounded at capacity updates; capacity <= 0
// means unbounded. The seed makes the internal balancing deterministic.
func NewGenQueue(capacity int, seed uint64) *GenQueue {
	return &GenQueue{t: newTreap(seed), cap: capacity}
}

// newCoalescingQueue returns a queue in coalescing mode, bounded at
// capacity updates (= objects) like NewGenQueue's.
func newCoalescingQueue(capacity int, seed uint64) *GenQueue {
	q := NewGenQueue(capacity, seed)
	q.coalesce = true
	return q
}

// Insert adds u and returns what left the queue because of it, by
// cause. superseded lost to a newer generation of its own object; only
// a coalescing queue has one: the older queued update, which u
// replaces, or u itself when the queued update is at least as new.
// evicted is the oldest update, dropped because the queue exceeded its
// capacity (§4.2: "discard the oldest updates when the maximum queue
// size has been exceeded"); it may be u.
func (q *GenQueue) Insert(u *model.Update) (superseded, evicted *model.Update) {
	if q.coalesce {
		if prev := q.chain(u.Object); prev != nil {
			if !less(prev.update, u) {
				return u, nil
			}
			superseded = q.removeNode(prev)
		}
	}
	n := q.t.alloc(u)
	if q.treapOnly || (q.tail != nil && less(u, q.tail.update)) {
		q.t.link(n)
	} else {
		n.priority = 0
		n.left = q.tail
		if q.tail != nil {
			q.tail.right = n
		} else {
			q.head = n
		}
		q.tail = n
		q.listLen++
	}
	for len(q.heads) <= int(u.Object) {
		q.heads = append(q.heads, nil)
	}
	if head := q.heads[u.Object]; head != nil {
		n.objNext = head
		head.objPrev = n
	}
	q.heads[u.Object] = n
	if q.cap > 0 && q.Len() > q.cap {
		evicted = q.PopOldest()
	}
	return superseded, evicted
}

// Len returns the number of queued updates.
func (q *GenQueue) Len() int { return q.t.len() + q.listLen }

// PeekOldest returns the oldest-generation update without removing it.
func (q *GenQueue) PeekOldest() *model.Update {
	m := q.t.min()
	if q.head != nil && (m == nil || less(q.head.update, m)) {
		return q.head.update
	}
	return m
}

// PeekNewest returns the newest-generation update without removing it.
func (q *GenQueue) PeekNewest() *model.Update {
	m := q.t.max()
	if q.tail != nil && (m == nil || less(m, q.tail.update)) {
		return q.tail.update
	}
	return m
}

// PopOldest removes and returns the oldest-generation update.
func (q *GenQueue) PopOldest() *model.Update { return q.release(q.popOldest(math.Inf(1))) }

// PopNewest removes and returns the newest-generation update.
func (q *GenQueue) PopNewest() *model.Update {
	tail := q.tail
	if tail == nil {
		return q.release(q.t.popMax(nil))
	}
	n := q.t.popMax(tail.update)
	if n == nil {
		n = tail
		q.unlink(n)
	}
	return q.release(n)
}

// popOldest takes the oldest node out of the list or the treap if it
// was generated strictly before cutoff; nil otherwise. The treap gives
// its oldest up only when that one orders before the list's head.
func (q *GenQueue) popOldest(cutoff float64) *node {
	h := q.head
	if h == nil {
		return q.t.popMin(cutoff, nil)
	}
	if n := q.t.popMin(cutoff, h.update); n != nil {
		return n
	}
	if h.update.GenTime >= cutoff {
		return nil
	}
	q.unlink(h)
	return h
}

// unlink takes a node out of the in-order list.
func (q *GenQueue) unlink(n *node) {
	if n.left != nil {
		n.left.right = n.right
	} else {
		q.head = n.right
	}
	if n.right != nil {
		n.right.left = n.left
	} else {
		q.tail = n.left
	}
	q.listLen--
}

// release takes a node already out of the list or the tree out of its
// object's chain, recycles it and returns its update (nil for nil).
func (q *GenQueue) release(n *node) *model.Update {
	if n == nil {
		return nil
	}
	if n.objPrev != nil {
		n.objPrev.objNext = n.objNext
	} else {
		q.heads[n.update.Object] = n.objNext
	}
	if n.objNext != nil {
		n.objNext.objPrev = n.objPrev
	}
	return q.t.recycle(n)
}

// removeNode takes a queued node out of the list or the treap and out
// of its object's chain, recycles it and returns its update.
func (q *GenQueue) removeNode(n *node) *model.Update {
	if n.priority == 0 {
		q.unlink(n)
	} else {
		q.t.remove(n.update)
	}
	return q.release(n)
}

// chain returns the first node of the object's chain, nil when nothing
// is queued for it or the object has never been seen.
func (q *GenQueue) chain(id model.ObjectID) *node {
	if id < 0 || int(id) >= len(q.heads) {
		return nil
	}
	return q.heads[id]
}

// NewestFor returns the newest queued update for the object, or nil.
func (q *GenQueue) NewestFor(id model.ObjectID) *model.Update {
	var newest *model.Update
	for n := q.chain(id); n != nil; n = n.objNext {
		if newest == nil || less(newest, n.update) {
			newest = n.update
		}
	}
	return newest
}

// CountFor returns the number of queued updates for the object.
func (q *GenQueue) CountFor(id model.ObjectID) int {
	count := 0
	for n := q.chain(id); n != nil; n = n.objNext {
		count++
	}
	return count
}

// TakeFor removes all updates for the object, returning the newest
// and the superseded remainder in the order they were queued.
func (q *GenQueue) TakeFor(id model.ObjectID) (*model.Update, []*model.Update) {
	head := q.chain(id)
	if head == nil {
		return nil, nil
	}
	newest, count := head.update, 0
	for n := head; n != nil; n = n.objNext {
		count++
		if less(newest, n.update) {
			newest = n.update
		}
	}
	var superseded []*model.Update
	if count > 1 {
		superseded = make([]*model.Update, count-1, count-1)
	}
	// The chain runs newest insert first; fill from the back.
	i := len(superseded)
	for n := head; n != nil; n = q.heads[id] {
		if u := q.removeNode(n); u != newest {
			i--
			superseded[i] = u
		}
	}
	return newest, superseded
}

// DiscardOlderGen removes every update generated strictly before
// cutoff. Because the queue is generation ordered this is a pop-oldest
// loop, constant work per discarded update.
func (q *GenQueue) DiscardOlderGen(cutoff float64) []*model.Update {
	var out []*model.Update
	for {
		n := q.popOldest(cutoff)
		if n == nil {
			return out
		}
		out = append(out, q.release(n))
	}
}

// Walk visits every queued update in generation order. Only tests use
// it.
func (q *GenQueue) Walk(visit func(*model.Update)) {
	l := q.head
	q.t.walk(func(u *model.Update) {
		for ; l != nil && less(l.update, u); l = l.right {
			visit(l.update)
		}
		visit(u)
	})
	for ; l != nil; l = l.right {
		visit(l.update)
	}
}
