// Package uqueue implements the update-queue structures of §3.3: a
// generation-time-ordered queue supporting FIFO (oldest generation)
// and LIFO (newest generation) service, per-object search for the
// On Demand algorithm, constant-time discard of expired updates from
// the old end, and bounded capacity, with the paper's proposed (§4.2/§7
// future work) coalescing queue, which stores at most the newest update
// per object, as a mode of the same queue; and a bounded kernel-side OS
// queue.
package uqueue

import "repro/internal/model"

// treap is a randomized balanced BST keyed by (GenTime, Seq). The
// priorities come from a deterministic xorshift stream so that queue
// behaviour is reproducible run to run.
type treap struct {
	root     *node
	rngState uint64
	size     int
	// free is a recycled-node list threaded through right pointers:
	// recycle pushes, alloc pops. A queue oscillating around a steady
	// depth allocates no nodes after warm-up, which keeps the
	// per-update scheduler path allocation-free. Recycling is purely
	// LIFO on removal order, so it is as deterministic as the treap
	// itself.
	free *node
}

type node struct {
	update *model.Update
	// priority is the treap's heap key, never zero in the tree. GenQueue
	// marks a node on its in-order list with a zero priority and reuses
	// left and right there as the links to the next older and next
	// newer node.
	priority uint64
	left     *node
	right    *node
	// objNext and objPrev thread GenQueue's per-object chain through
	// the nodes it has queued (see GenQueue.heads); a bare treap
	// leaves them nil. The node stays in the 48-byte size class
	// a single link would already put it in.
	objNext *node
	objPrev *node
}

func newTreap(seed uint64) *treap {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &treap{rngState: seed}
}

func (t *treap) nextPriority() uint64 {
	// xorshift64*
	x := t.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rngState = x
	return x * 0x2545f4914f6cdd1d
}

// less orders updates by generation time, breaking ties by arrival
// sequence so the key is a strict total order.
func less(a, b *model.Update) bool {
	if a.GenTime != b.GenTime {
		return a.GenTime < b.GenTime
	}
	return a.Seq < b.Seq
}

func (t *treap) len() int { return t.size }

// alloc returns an unlinked node holding u, recycled when there is one.
func (t *treap) alloc(u *model.Update) *node {
	n := t.free
	if n == nil {
		return &node{update: u}
	}
	t.free = n.right
	n.right = nil
	n.update = u
	return n
}

// link puts an unlinked node into the tree under a fresh priority.
// nextPriority never yields zero (xorshift keeps a non-zero state and
// the multiplier is odd), which leaves zero free to mark a node that is
// queued outside the tree (see GenQueue).
func (t *treap) link(n *node) {
	n.priority = t.nextPriority()
	t.root = t.insertNode(t.root, n)
	t.size++
}

func (t *treap) insertNode(root, n *node) *node {
	if root == nil {
		return n
	}
	if less(n.update, root.update) {
		root.left = t.insertNode(root.left, n)
		if root.left.priority > root.priority {
			root = rotateRight(root)
		}
	} else {
		root.right = t.insertNode(root.right, n)
		if root.right.priority > root.priority {
			root = rotateLeft(root)
		}
	}
	return root
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	return y
}

// min returns the oldest-generation update, or nil when empty.
func (t *treap) min() *model.Update {
	n := t.root
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	return n.update
}

// max returns the newest-generation update, or nil when empty.
func (t *treap) max() *model.Update {
	n := t.root
	if n == nil {
		return nil
	}
	for n.right != nil {
		n = n.right
	}
	return n.update
}

// popMin unlinks and returns the oldest-generation node if it was
// generated strictly before cutoff (+Inf takes whatever is oldest) and,
// when before is not nil, orders before it, in one descent; nil
// otherwise. The leftmost node has no left child, so its right subtree
// takes its place — the tree merge(nil, right) would build. The caller
// hands the node back with recycle once it has read it.
func (t *treap) popMin(cutoff float64, before *model.Update) *node {
	n := t.root
	if n == nil {
		return nil
	}
	var parent *node
	for n.left != nil {
		parent, n = n, n.left
	}
	if n.update.GenTime >= cutoff || (before != nil && !less(n.update, before)) {
		return nil
	}
	if parent == nil {
		t.root = n.right
	} else {
		parent.left = n.right
	}
	t.size--
	return n
}

// popMax is popMin's mirror image for the newest-generation node: it
// is taken unless after is not nil and the node does not order after it.
func (t *treap) popMax(after *model.Update) *node {
	n := t.root
	if n == nil {
		return nil
	}
	var parent *node
	for n.right != nil {
		parent, n = n, n.right
	}
	if after != nil && !less(after, n.update) {
		return nil
	}
	if parent == nil {
		t.root = n.left
	} else {
		parent.right = n.left
	}
	t.size--
	return n
}

// remove unlinks and returns the node with exactly u's key, or nil when
// there is none. The caller recycles it.
func (t *treap) remove(u *model.Update) *node {
	var removed *node
	t.root, removed = t.removeKey(t.root, u)
	if removed != nil {
		t.size--
	}
	return removed
}

func (t *treap) removeKey(root *node, u *model.Update) (*node, *node) {
	if root == nil {
		return nil, nil
	}
	if root.update.Seq == u.Seq && root.update.GenTime == u.GenTime {
		return t.merge(root.left, root.right), root
	}
	var removed *node
	if less(u, root.update) {
		root.left, removed = t.removeKey(root.left, u)
	} else {
		root.right, removed = t.removeKey(root.right, u)
	}
	return root, removed
}

// recycle pushes an unlinked node onto the free list and returns the
// update it held, dropping the node's references so the list retains
// neither the update nor a subtree.
func (t *treap) recycle(n *node) *model.Update {
	u := n.update
	n.update = nil
	n.left = nil
	n.objNext, n.objPrev = nil, nil
	n.right = t.free
	t.free = n
	return u
}

// merge joins two treaps where every key in a precedes every key in b.
func (t *treap) merge(a, b *node) *node {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.priority > b.priority {
		a.right = t.merge(a.right, b)
		return a
	}
	b.left = t.merge(a, b.left)
	return b
}

// walk visits updates in generation order.
func (t *treap) walk(visit func(*model.Update)) {
	var rec func(*node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		rec(n.left)
		visit(n.update)
		rec(n.right)
	}
	rec(t.root)
}
