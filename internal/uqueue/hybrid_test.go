package uqueue

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
)

// GenQueue keeps in-order arrivals on a list and the rest in the treap.
// These tests hold that split to what the treap alone does: the same
// seeded stream of operations goes through a queue as shipped and
// through a reference forced onto the pure-treap path, and everything a
// caller can see must agree after every operation. Each runs in both
// modes: a coalescing insert also takes the superseded update out of
// whichever structure holds it.

// newQueue is the queue as shipped, in coalescing mode or not.
func newQueue(capacity int, seed uint64, coalesce bool) *GenQueue {
	if coalesce {
		return newCoalescingQueue(capacity, seed)
	}
	return NewGenQueue(capacity, seed)
}

// newTreapOnlyQueue is the reference: a GenQueue that never uses its list.
func newTreapOnlyQueue(capacity int, seed uint64, coalesce bool) *GenQueue {
	q := newQueue(capacity, seed, coalesce)
	q.treapOnly = true
	return q
}

// modeSuffix marks a coalescing run's subtest name; a default-mode
// run's name has no suffix.
func modeSuffix(coalesce bool) string {
	if coalesce {
		return "/coalesce"
	}
	return ""
}

// arrivalGens are the generation-time shapes a feed can have: strictly
// in order with ties (every arrival takes the list), fully shuffled
// (nearly every arrival takes the treap), and a mostly ordered feed
// with stragglers (both hold updates at once and the extremes move
// between them).
var arrivalGens = map[string]func(r *rand.Rand, i int) float64{
	"in-order": func(r *rand.Rand, i int) float64 { return float64(i / 2) },
	"shuffled": func(r *rand.Rand, i int) float64 { return float64(r.Intn(300)) },
	"mixed": func(r *rand.Rand, i int) float64 {
		if r.Intn(5) == 0 {
			return float64(i - r.Intn(60))
		}
		return float64(i)
	},
}

// nodes counts the nodes a queue owns: queued plus recycled. Nodes are
// allocated only when the free list is empty, so the sum never falls
// while none is lost and never exceeds the deepest the queue has been.
func (q *GenQueue) nodes() int {
	n := q.Len()
	for f := q.t.free; f != nil; f = f.right {
		n++
	}
	return n
}

func walked(q *GenQueue) []*model.Update {
	var out []*model.Update
	q.Walk(func(u *model.Update) { out = append(out, u) })
	return out
}

func TestGenQueueListMatchesTreap(t *testing.T) {
	const objects, ops = 12, 4000
	for shape, gen := range arrivalGens {
		for _, order := range []model.QueueOrder{model.FIFO, model.LIFO} {
			for _, capacity := range []int{0, 48} {
				for _, coalesce := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/cap%d%s", shape, order, capacity, modeSuffix(coalesce))
					t.Run(name, func(t *testing.T) {
						r := rand.New(rand.NewSource(int64(len(name))))
						got, want := newQueue(capacity, 5, coalesce), newTreapOnlyQueue(capacity, 5, coalesce)
						pop := func(q *GenQueue, oldest bool) *model.Update {
							if oldest {
								return q.PopOldest()
							}
							return q.PopNewest()
						}
						listed, treaped, nodes := 0, 0, 0
						for i := 0; i < ops; i++ {
							var a, b any
							switch op := r.Intn(20); {
							case op < 10:
								u := upd(uint64(i+1), model.ObjectID(r.Intn(objects)), gen(r, i))
								as, ae := got.Insert(u)
								bs, be := want.Insert(u)
								a, b = [2]*model.Update{as, ae}, [2]*model.Update{bs, be}
							case op < 15:
								// The discipline's own end, most of the time.
								a, b = pop(got, order == model.FIFO), pop(want, order == model.FIFO)
							case op < 16:
								a, b = pop(got, order != model.FIFO), pop(want, order != model.FIFO)
							case op < 18:
								id := model.ObjectID(r.Intn(objects))
								an, as := got.TakeFor(id)
								bn, bs := want.TakeFor(id)
								a, b = append(as, an), append(bs, bn)
							default:
								cutoff := float64(r.Intn(10))
								if oldest := want.PeekOldest(); oldest != nil {
									cutoff += oldest.GenTime
								}
								a, b = got.DiscardOlderGen(cutoff), want.DiscardOlderGen(cutoff)
							}
							if !reflect.DeepEqual(a, b) {
								t.Fatalf("op %d: got %v, reference %v", i, a, b)
							}
							if got.Len() != want.Len() || got.PeekOldest() != want.PeekOldest() || got.PeekNewest() != want.PeekNewest() {
								t.Fatalf("op %d: len %d oldest %v newest %v, reference %d %v %v", i,
									got.Len(), got.PeekOldest(), got.PeekNewest(), want.Len(), want.PeekOldest(), want.PeekNewest())
							}
							if n := got.nodes(); n < nodes || n != want.nodes() {
								t.Fatalf("op %d: the queue owns %d nodes, %d before, the reference %d", i, n, nodes, want.nodes())
							}
							nodes = got.nodes()
							listed += got.listLen
							treaped += got.t.len()
							if i%16 != 0 {
								continue
							}
							if g, w := walked(got), walked(want); !reflect.DeepEqual(g, w) {
								t.Fatalf("op %d: Walk %v, reference %v", i, seqs(g), seqs(w))
							}
							for id := model.ObjectID(0); id < objects; id++ {
								if got.CountFor(id) != want.CountFor(id) || got.NewestFor(id) != want.NewestFor(id) {
									t.Fatalf("op %d object %d: CountFor %d NewestFor %v, reference %d %v", i, id,
										got.CountFor(id), got.NewestFor(id), want.CountFor(id), want.NewestFor(id))
								}
							}
						}
						// The shapes are there to reach both structures.
						if listed == 0 || (treaped == 0) != (shape == "in-order") {
							t.Errorf("list held %d and treap %d update-steps: the stream lost a case", listed, treaped)
						}
					})
				}
			}
		}
	}
}

// TestClassQueueListMatchesTreap runs the same comparison through the
// scheduler's view of the queue: two classes, the merged head chosen by
// peeking both, and the joint capacity's eviction.
func TestClassQueueListMatchesTreap(t *testing.T) {
	const objects, ops, capacity = 12, 4000, 40
	for shape, gen := range arrivalGens {
		for _, order := range []model.QueueOrder{model.FIFO, model.LIFO} {
			for _, coalesce := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v%s", shape, order, modeSuffix(coalesce))
				t.Run(name, func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(len(name))))
					got := NewClassQueue(capacity, 9, coalesce)
					want := &ClassQueue{q: [2]*GenQueue{newTreapOnlyQueue(0, 9, coalesce), newTreapOnlyQueue(0, 10, coalesce)}, cap: capacity}
					for i := 0; i < ops; i++ {
						var a, b any
						class := model.Importance(r.Intn(2))
						id := model.ObjectID(r.Intn(objects))
						switch op := r.Intn(20); {
						case op < 11:
							u := cu(uint64(i+1), id, class, gen(r, i))
							as, ae := got.Insert(u)
							bs, be := want.Insert(u)
							a, b = [2]*model.Update{as, ae}, [2]*model.Update{bs, be}
						case op < 15:
							a, b = got.Pop(order, -1), want.Pop(order, -1)
						case op < 16:
							a, b = got.Pop(order, int(class)), want.Pop(order, int(class))
						case op < 18:
							an, as := got.TakeFor(class, id)
							bn, bs := want.TakeFor(class, id)
							a, b = append(as, an), append(bs, bn)
						default:
							cutoff := float64(r.Intn(10))
							if oldest := want.q[class].PeekOldest(); oldest != nil {
								cutoff += oldest.GenTime
							}
							a, b = got.DiscardOlderGen(cutoff), want.DiscardOlderGen(cutoff)
						}
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("op %d: got %v, reference %v", i, a, b)
						}
						if got.Len() != want.Len() || got.LenClass(class) != want.LenClass(class) ||
							got.NewestFor(class, id) != want.NewestFor(class, id) {
							t.Fatalf("op %d: len %d/%d newest %v, reference %d/%d %v", i,
								got.Len(), got.LenClass(class), got.NewestFor(class, id),
								want.Len(), want.LenClass(class), want.NewestFor(class, id))
						}
					}
				})
			}
		}
	}
}
