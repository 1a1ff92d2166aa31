package uqueue

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
)

// dump renders a treap completely: its shape with every node's update
// and priority, and the priorities left on the recycled nodes of the
// free list in list order (a recycled node keeps its last priority, so
// two free lists read the same only if the same nodes were recycled in
// the same order).
func (t *treap) dump() string {
	var rec func(*node) string
	rec = func(n *node) string {
		if n == nil {
			return "."
		}
		return fmt.Sprintf("(%s %d/%x %s)", rec(n.left), n.update.Seq, n.priority, rec(n.right))
	}
	s := rec(t.root) + " free:"
	for n := t.free; n != nil; n = n.right {
		if n.update != nil || n.left != nil || n.objNext != nil || n.objPrev != nil {
			s += " DIRTY"
		}
		s += fmt.Sprintf(" %x", n.priority)
	}
	return s
}

// insert adds u to a bare treap.
func (t *treap) insert(u *model.Update) { t.link(t.alloc(u)) }

// TestPopExtremeMatchesMinPlusRemove: popMin and popMax, one descent
// each, give the same sequence and leave the same tree — shape,
// priorities, free list — as looking the extreme up and removing it by
// key, which is what the queue did before and what keeps the
// simulator's runs byte-identical.
func TestPopExtremeMatchesMinPlusRemove(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		got, want := newTreap(uint64(seed)), newTreap(uint64(seed))
		var seq uint64
		for i := 0; i < 2000; i++ {
			var a, b *model.Update
			switch op := r.Intn(7); {
			case op < 3:
				seq++
				u := upd(seq, model.ObjectID(r.Intn(8)), float64(r.Intn(40)))
				got.insert(u)
				want.insert(u)
				continue
			case op == 3 || op == 4:
				if n := got.popMin(math.Inf(1), nil); n != nil {
					a = got.recycle(n)
				}
				if b = want.min(); b != nil {
					want.recycle(want.remove(b))
				}
			case op == 5:
				if n := got.popMax(nil); n != nil {
					a = got.recycle(n)
				}
				if b = want.max(); b != nil {
					want.recycle(want.remove(b))
				}
			default:
				// A bounded pop: only while the oldest is before the cutoff.
				cutoff := float64(r.Intn(40))
				if n := got.popMin(cutoff, nil); n != nil {
					a = got.recycle(n)
				}
				if b = want.min(); b != nil && b.GenTime < cutoff {
					want.recycle(want.remove(b))
				} else {
					b = nil
				}
			}
			if a != b {
				t.Fatalf("seed %d op %d: popped %v, reference %v", seed, i, a, b)
			}
			if got.len() != want.len() {
				t.Fatalf("seed %d op %d: len %d, reference %d", seed, i, got.len(), want.len())
			}
			if g, w := got.dump(), want.dump(); g != w {
				t.Fatalf("seed %d op %d: trees differ\n got %s\nwant %s", seed, i, g, w)
			}
		}
	}
}

// seqs lists the updates' sequence numbers.
func seqs(us []*model.Update) []uint64 {
	out := []uint64{}
	for _, u := range us {
		out = append(out, u.Seq)
	}
	return out
}

// TestGenQueueDenseIndex drives the slice-backed per-object index at
// its edges: an object never seen, one far beyond every id seen so far,
// a chain that empties and is used again, and removal from the head,
// the middle and the tail of a chain.
func TestGenQueueDenseIndex(t *testing.T) {
	q := NewGenQueue(0, 1)
	const far = model.ObjectID(100_000)
	if q.NewestFor(far) != nil || q.CountFor(far) != 0 || q.CountFor(-1) != 0 {
		t.Fatal("an object never seen has something queued")
	}
	if u, sup := q.TakeFor(far); u != nil || sup != nil {
		t.Fatal("TakeFor of an object never seen returned something")
	}

	q.Insert(upd(1, 2, 10))
	q.Insert(upd(2, far, 30))
	q.Insert(upd(3, far, 20))
	q.Insert(upd(4, far, 40))
	q.Insert(upd(5, 2, 5))
	if got := q.CountFor(far); got != 3 {
		t.Fatalf("CountFor(far) = %d, want 3", got)
	}
	if got := q.NewestFor(far); got == nil || got.Seq != 4 {
		t.Fatalf("NewestFor(far) = %v, want seq 4", got)
	}
	if q.CountFor(far-1) != 0 || q.NewestFor(3) != nil {
		t.Fatal("growing the index to a far id queued something for its neighbours")
	}

	// Seq 3 (generation 20) sits in the middle of far's chain, seq 5 at
	// the head of object 2's, seq 1 at the tail of it.
	for _, want := range []uint64{5, 1, 3} {
		if got := q.PopOldest(); got.Seq != want {
			t.Fatalf("PopOldest = seq %d, want %d", got.Seq, want)
		}
	}
	if q.CountFor(2) != 0 || q.NewestFor(2) != nil || q.CountFor(far) != 2 {
		t.Fatalf("after pops: CountFor(2) = %d, CountFor(far) = %d", q.CountFor(2), q.CountFor(far))
	}
	if got := q.PopNewest(); got.Seq != 4 {
		t.Fatalf("PopNewest = seq %d, want 4", got.Seq)
	}

	// Object 2's chain emptied; it is used again, and TakeFor hands the
	// superseded updates back in the order they were queued.
	q.Insert(upd(6, 2, 50))
	q.Insert(upd(7, 2, 70))
	q.Insert(upd(8, 2, 60))
	newest, sup := q.TakeFor(2)
	if newest == nil || newest.Seq != 7 || !reflect.DeepEqual(seqs(sup), []uint64{6, 8}) {
		t.Fatalf("TakeFor(2) = %v, %v; want seq 7 and [6 8]", newest, seqs(sup))
	}
	if q.CountFor(2) != 0 {
		t.Fatal("TakeFor left the chain behind")
	}
	var walked []*model.Update
	q.Walk(func(u *model.Update) { walked = append(walked, u) })
	if !reflect.DeepEqual(seqs(walked), []uint64{2}) || q.Len() != 1 {
		t.Fatalf("Walk = %v, Len = %d; want the one update left (seq 2)", seqs(walked), q.Len())
	}
	if got := q.DiscardOlderGen(100); !reflect.DeepEqual(seqs(got), []uint64{2}) || q.CountFor(far) != 0 {
		t.Fatalf("DiscardOlderGen = %v, CountFor(far) = %d", seqs(got), q.CountFor(far))
	}
}

// TestGenQueueIndexMatchesShadow checks the index against a naive
// shadow under a random mix of every operation that touches a chain.
func TestGenQueueIndexMatchesShadow(t *testing.T) {
	const objects = 6
	r := rand.New(rand.NewSource(7))
	q := NewGenQueue(40, 3)
	shadow := map[uint64]*model.Update{}
	gone := func(us ...*model.Update) {
		for _, u := range us {
			if u == nil {
				continue
			}
			if shadow[u.Seq] == nil {
				t.Fatalf("update %d left the queue twice", u.Seq)
			}
			delete(shadow, u.Seq)
		}
	}
	var seq uint64
	for i := 0; i < 5000; i++ {
		switch op := r.Intn(10); {
		case op < 5:
			seq++
			u := upd(seq, model.ObjectID(r.Intn(objects)), float64(r.Intn(100)))
			shadow[u.Seq] = u
			gone(q.Insert(u))
		case op == 5:
			gone(q.PopOldest())
		case op == 6:
			gone(q.PopNewest())
		case op == 7:
			newest, sup := q.TakeFor(model.ObjectID(r.Intn(objects)))
			gone(newest)
			gone(sup...)
		default:
			gone(q.DiscardOlderGen(float64(r.Intn(30)))...)
		}
		for obj := model.ObjectID(0); obj < objects; obj++ {
			count := 0
			var newest *model.Update
			for _, u := range shadow {
				if u.Object == obj {
					count++
					if newest == nil || less(newest, u) {
						newest = u
					}
				}
			}
			if q.CountFor(obj) != count || q.NewestFor(obj) != newest {
				t.Fatalf("op %d object %d: CountFor %d NewestFor %v, shadow %d %v",
					i, obj, q.CountFor(obj), q.NewestFor(obj), count, newest)
			}
		}
		if q.Len() != len(shadow) {
			t.Fatalf("op %d: Len %d, shadow %d", i, q.Len(), len(shadow))
		}
	}
}

// TestGenQueueSteadyStateAllocatesNothing pins the queue's share of the
// per-update budget: once the free list and the index have grown to the
// working depth, queueing an update and taking the oldest one out again
// allocates nothing.
func TestGenQueueSteadyStateAllocatesNothing(t *testing.T) {
	const depth, objects = 256, 100
	q := NewClassQueue(0, 1, false)
	us := make([]*model.Update, 4*depth)
	for i := range us {
		us[i] = cu(uint64(i+1), model.ObjectID(i%objects), model.Low, float64(i))
	}
	for _, u := range us[:depth] {
		q.Insert(u)
	}
	next := depth
	allocs := testing.AllocsPerRun(len(us)-depth-1, func() {
		q.Insert(us[next])
		next++
		if q.Pop(model.FIFO, -1) == nil {
			t.Fatal("queue ran dry")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Insert+PopOldest allocates %v times per update, want 0", allocs)
	}
}

// TestTakeForAllocatesTheSupersededSlice pins GenQueue.TakeFor, the
// on-demand refresh's queue operation: taking an object's only queued
// update allocates nothing, and taking one that supersedes older ones
// allocates once — the slice it returns them in.
func TestTakeForAllocatesTheSupersededSlice(t *testing.T) {
	const obj = model.ObjectID(7)
	q := NewGenQueue(0, 1)
	us := make([]*model.Update, 3)
	for i := range us {
		us[i] = cu(uint64(i+1), obj, model.Low, float64(i))
	}
	for _, c := range []struct {
		queued int
		want   float64
		why    string
	}{
		{1, 0, "nothing superseded, nothing returned"},
		{3, 1, "the slice of superseded updates"},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			for _, u := range us[:c.queued] {
				q.Insert(u)
			}
			if newest, old := q.TakeFor(obj); newest != us[c.queued-1] || len(old) != c.queued-1 {
				t.Fatalf("TakeFor = %v and %d superseded, want %v and %d", newest, len(old), us[c.queued-1], c.queued-1)
			}
		})
		if allocs != c.want {
			t.Errorf("Insert x%d + TakeFor allocates %v times, want %v (%s)", c.queued, allocs, c.want, c.why)
		}
	}
}

// TestCoalescingInsertAllocatesNothing pins the coalescing queue's
// Insert: once the free list is warm, neither a first update for an
// object nor one that supersedes (or is rejected by) a queued update
// allocates. The loser comes back as a plain result, and the winner
// takes the loser's recycled node.
func TestCoalescingInsertAllocatesNothing(t *testing.T) {
	const obj = model.ObjectID(7)
	q := newCoalescingQueue(0, 1)
	older, newer := cu(1, obj, model.Low, 1), cu(2, obj, model.Low, 2)
	if allocs := testing.AllocsPerRun(100, func() {
		q.Insert(older)
		q.TakeFor(obj)
	}); allocs != 0 {
		t.Errorf("a coalescing Insert that supersedes nothing allocates %v times, want 0", allocs)
	}
	for _, pair := range [][2]*model.Update{{older, newer}, {newer, older}} {
		allocs := testing.AllocsPerRun(100, func() {
			q.Insert(pair[0])
			if sup, ev := q.Insert(pair[1]); sup != older || ev != nil {
				t.Fatalf("second Insert superseded %v and evicted %v, want the older update superseded", sup, ev)
			}
			q.TakeFor(obj)
		})
		if allocs != 0 {
			t.Errorf("a coalescing Insert that loses an update allocates %v times, want 0", allocs)
		}
	}
}
