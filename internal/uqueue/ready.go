package uqueue

import "container/heap"

// Density is the key both schedulers rank ready transactions by: value
// per second of estimated remaining work (§3.4), and value·10¹² for a
// transaction with none to estimate.
func Density(value, estimate float64) float64 {
	if estimate > 0 {
		return value / estimate
	}
	return value * 1e12
}

// Rank is a transaction's key in the ready queue, embedded by the
// simulator's and the engine's transaction records: its density, and
// the ID that breaks ties, the lower (earlier) first.
type Rank struct {
	Density float64
	ID      uint64
	pos     int
}

func (r *Rank) rank() *Rank { return r }

// Ranked is a pointer to a record that embeds Rank.
type Ranked interface{ rank() *Rank }

// NewReadyQueue returns the ready queue both schedulers use: the
// highest density first, equal densities in ID order.
func NewReadyQueue[E Ranked]() Heap[E] {
	return NewHeap(func(a, b E) bool {
		x, y := a.rank(), b.rank()
		return x.Density > y.Density || x.Density == y.Density && x.ID < y.ID
	}, func(e E) *int { return &e.rank().pos })
}

// Heap is a binary heap, least first under less, whose entries keep
// their own positions in the field pos points at, so that any entry can
// leave it in O(log n). One entry can be in two heaps through two such
// fields.
type Heap[E any] struct{ h entries[E] }

// NewHeap returns an empty heap.
func NewHeap[E any](less func(a, b E) bool, pos func(E) *int) Heap[E] {
	return Heap[E]{entries[E]{less: less, pos: pos}}
}

// Len returns the number of entries.
func (h *Heap[E]) Len() int { return len(h.h.s) }

// Top returns the least entry of a non-empty heap.
func (h *Heap[E]) Top() E { return h.h.s[0] }

// Push adds e.
func (h *Heap[E]) Push(e E) { heap.Push(&h.h, e) }

// Pop removes and returns the least entry of a non-empty heap.
func (h *Heap[E]) Pop() E { return heap.Pop(&h.h).(E) }

// Remove takes e, which must be in the heap, out of it.
func (h *Heap[E]) Remove(e E) { heap.Remove(&h.h, *h.h.pos(e)) }

// entries is Heap's heap.Interface.
type entries[E any] struct {
	s    []E
	less func(a, b E) bool
	pos  func(E) *int
}

func (h *entries[E]) Len() int           { return len(h.s) }
func (h *entries[E]) Less(i, j int) bool { return h.less(h.s[i], h.s[j]) }

func (h *entries[E]) Swap(i, j int) {
	h.s[i], h.s[j] = h.s[j], h.s[i]
	*h.pos(h.s[i]), *h.pos(h.s[j]) = i, j
}

func (h *entries[E]) Push(x any) {
	*h.pos(x.(E)) = len(h.s)
	h.s = append(h.s, x.(E))
}

func (h *entries[E]) Pop() any {
	n := len(h.s) - 1
	e := h.s[n]
	var zero E
	h.s[n] = zero
	h.s = h.s[:n]
	return e
}
