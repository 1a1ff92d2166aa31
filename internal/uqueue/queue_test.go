package uqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func upd(seq uint64, obj model.ObjectID, gen float64) *model.Update {
	return &model.Update{Seq: seq, Object: obj, GenTime: gen, ArrivalTime: gen + 0.1}
}

func TestGenQueueFIFOOrder(t *testing.T) {
	q := NewGenQueue(0, 1)
	// Insert out of generation order.
	q.Insert(upd(1, 0, 5))
	q.Insert(upd(2, 1, 3))
	q.Insert(upd(3, 2, 9))
	q.Insert(upd(4, 3, 1))
	var gens []float64
	for q.Len() > 0 {
		gens = append(gens, q.PopOldest().GenTime)
	}
	if !sort.Float64sAreSorted(gens) || len(gens) != 4 {
		t.Fatalf("FIFO order wrong: %v", gens)
	}
}

func TestGenQueueLIFOOrder(t *testing.T) {
	q := NewGenQueue(0, 1)
	for i, g := range []float64{5, 3, 9, 1} {
		q.Insert(upd(uint64(i), model.ObjectID(i), g))
	}
	var gens []float64
	for q.Len() > 0 {
		gens = append(gens, q.PopNewest().GenTime)
	}
	want := []float64{9, 5, 3, 1}
	for i := range want {
		if gens[i] != want[i] {
			t.Fatalf("LIFO order = %v, want %v", gens, want)
		}
	}
}

func TestGenQueueTieBreakBySeq(t *testing.T) {
	q := NewGenQueue(0, 1)
	q.Insert(upd(10, 0, 2))
	q.Insert(upd(11, 1, 2))
	q.Insert(upd(12, 2, 2))
	if got := q.PopOldest().Seq; got != 10 {
		t.Fatalf("oldest of tied generations Seq = %d, want 10", got)
	}
	if got := q.PopNewest().Seq; got != 12 {
		t.Fatalf("newest of tied generations Seq = %d, want 12", got)
	}
}

func TestGenQueuePeekDoesNotRemove(t *testing.T) {
	q := NewGenQueue(0, 1)
	q.Insert(upd(1, 0, 2))
	if q.PeekOldest() == nil || q.Len() != 1 {
		t.Fatal("PeekOldest should not remove")
	}
}

func TestGenQueueEmptyOps(t *testing.T) {
	q := NewGenQueue(0, 1)
	if q.PopOldest() != nil || q.PopNewest() != nil || q.PeekOldest() != nil {
		t.Fatal("pops on empty queue should return nil")
	}
	if u, sup := q.TakeFor(3); u != nil || len(sup) != 0 {
		t.Fatal("TakeFor on empty queue should be empty")
	}
	if got := q.DiscardOlderGen(100); len(got) != 0 {
		t.Fatal("DiscardOlderGen on empty queue should be empty")
	}
}

func TestGenQueueCapacityEvictsOldest(t *testing.T) {
	q := NewGenQueue(3, 1)
	for i := 0; i < 3; i++ {
		if sup, ev := q.Insert(upd(uint64(i), model.ObjectID(i), float64(i))); sup != nil || ev != nil {
			t.Fatalf("unexpected departure at insert %d", i)
		}
	}
	sup, ev := q.Insert(upd(9, 9, 9))
	if sup != nil || ev == nil || ev.GenTime != 0 {
		t.Fatalf("superseded %v, evicted %v; want the oldest (gen 0) evicted", sup, ev)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
}

func TestGenQueueNewestFor(t *testing.T) {
	q := NewGenQueue(0, 1)
	q.Insert(upd(1, 7, 1))
	q.Insert(upd(2, 7, 5))
	q.Insert(upd(3, 7, 3))
	q.Insert(upd(4, 8, 9))
	if got := q.NewestFor(7); got == nil || got.GenTime != 5 {
		t.Fatalf("NewestFor(7) = %+v, want gen 5", got)
	}
	if got := q.NewestFor(99); got != nil {
		t.Fatalf("NewestFor(absent) = %+v", got)
	}
	if got := q.CountFor(7); got != 3 {
		t.Fatalf("CountFor(7) = %d, want 3", got)
	}
}

func TestGenQueueTakeFor(t *testing.T) {
	q := NewGenQueue(0, 1)
	q.Insert(upd(1, 7, 1))
	q.Insert(upd(2, 7, 5))
	q.Insert(upd(3, 8, 3))
	newest, sup := q.TakeFor(7)
	if newest == nil || newest.GenTime != 5 || len(sup) != 1 {
		t.Fatalf("TakeFor = (%+v, %d superseded), want (gen 5, 1)", newest, len(sup))
	}
	if sup[0].GenTime != 1 {
		t.Fatalf("superseded gen = %v, want 1", sup[0].GenTime)
	}
	if q.Len() != 1 || q.CountFor(7) != 0 {
		t.Fatalf("queue after TakeFor: len=%d countFor7=%d", q.Len(), q.CountFor(7))
	}
	// The remaining update for object 8 must still be reachable.
	if got := q.NewestFor(8); got == nil || got.GenTime != 3 {
		t.Fatalf("NewestFor(8) = %+v", got)
	}
}

func TestGenQueueDiscardOlderGen(t *testing.T) {
	q := NewGenQueue(0, 1)
	for i, g := range []float64{1, 2, 3, 4, 5} {
		q.Insert(upd(uint64(i), model.ObjectID(i), g))
	}
	out := q.DiscardOlderGen(3)
	if len(out) != 2 || out[0].GenTime != 1 || out[1].GenTime != 2 {
		t.Fatalf("discarded = %v", out)
	}
	// Cutoff is exclusive: gen 3 stays.
	if q.Len() != 3 || q.PeekOldest().GenTime != 3 {
		t.Fatalf("after discard: len=%d oldest=%v", q.Len(), q.PeekOldest())
	}
}

func TestGenQueueWalkInOrder(t *testing.T) {
	q := NewGenQueue(0, 42)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		q.Insert(upd(uint64(i), model.ObjectID(i%10), r.Float64()*100))
	}
	var gens []float64
	q.Walk(func(u *model.Update) { gens = append(gens, u.GenTime) })
	if len(gens) != 200 || !sort.Float64sAreSorted(gens) {
		t.Fatalf("Walk visited %d items, sorted=%v", len(gens), sort.Float64sAreSorted(gens))
	}
}

func TestQuickGenQueueInvariants(t *testing.T) {
	// Under a random op sequence: size is consistent, pops come out in
	// generation order, and the per-object index agrees with a naive
	// shadow implementation.
	type op struct {
		kind byte
		obj  model.ObjectID
		gen  float64
	}
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewGenQueue(0, uint64(seed)+1)
		shadow := map[uint64]*model.Update{}
		var seq uint64
		for i := 0; i < int(nOps)*4; i++ {
			switch r.Intn(4) {
			case 0, 1: // insert
				u := upd(seq, model.ObjectID(r.Intn(5)), float64(r.Intn(50)))
				seq++
				q.Insert(u)
				shadow[u.Seq] = u
			case 2: // pop oldest
				u := q.PopOldest()
				if u == nil {
					if len(shadow) != 0 {
						return false
					}
					continue
				}
				for _, s := range shadow {
					if s.GenTime < u.GenTime {
						return false // popped non-minimum
					}
				}
				delete(shadow, u.Seq)
			case 3: // take for object
				obj := model.ObjectID(r.Intn(5))
				newest, sup := q.TakeFor(obj)
				cnt := 0
				var want *model.Update
				for _, s := range shadow {
					if s.Object == obj {
						cnt++
						if want == nil || less(want, s) {
							want = s
						}
					}
				}
				n := len(sup)
				if newest != nil {
					n++
				}
				if n != cnt {
					return false
				}
				if cnt > 0 && (newest == nil || newest.Seq != want.Seq) {
					return false
				}
				for k, s := range shadow {
					if s.Object == obj {
						delete(shadow, k)
					}
				}
			}
			if q.Len() != len(shadow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	_ = op{}
}

func TestCoalescingQueueKeepsNewestPerObject(t *testing.T) {
	q := newCoalescingQueue(0, 1)
	q.Insert(upd(1, 7, 1))
	sup, ev := q.Insert(upd(2, 7, 5)) // newer: replaces
	if sup == nil || sup.Seq != 1 || ev != nil {
		t.Fatalf("replacing insert superseded %v and evicted %v, want seq 1 superseded", sup, ev)
	}
	stale := upd(3, 7, 3) // older: rejected
	if sup, ev = q.Insert(stale); sup != stale || ev != nil {
		t.Fatalf("stale insert superseded %v and evicted %v, want the incoming update superseded", sup, ev)
	}
	if q.Len() != 1 || q.CountFor(7) != 1 {
		t.Fatalf("Len = %d, CountFor = %d, want 1 and 1", q.Len(), q.CountFor(7))
	}
	if got := q.NewestFor(7); got.GenTime != 5 {
		t.Fatalf("NewestFor = gen %v, want 5", got.GenTime)
	}
}

func TestCoalescingQueueOrdering(t *testing.T) {
	q := newCoalescingQueue(0, 1)
	q.Insert(upd(1, 1, 5))
	q.Insert(upd(2, 2, 3))
	q.Insert(upd(3, 3, 9))
	if got := q.PopOldest(); got.Object != 2 {
		t.Fatalf("PopOldest object = %d, want 2", got.Object)
	}
	if got := q.PopNewest(); got.Object != 3 {
		t.Fatalf("PopNewest object = %d, want 3", got.Object)
	}
	if got := q.PeekOldest(); got.Object != 1 {
		t.Fatalf("PeekOldest object = %d, want 1", got.Object)
	}
}

func TestCoalescingQueueTakeForAndCount(t *testing.T) {
	q := newCoalescingQueue(0, 1)
	q.Insert(upd(1, 7, 1))
	if q.CountFor(7) != 1 || q.CountFor(8) != 0 {
		t.Fatal("CountFor wrong")
	}
	u, sup := q.TakeFor(7)
	if u == nil || len(sup) != 0 || q.Len() != 0 {
		t.Fatalf("TakeFor = (%v, %d superseded)", u, len(sup))
	}
	u, sup = q.TakeFor(7)
	if u != nil || len(sup) != 0 {
		t.Fatal("second TakeFor should be empty")
	}
}

func TestCoalescingQueueCapacity(t *testing.T) {
	q := newCoalescingQueue(2, 1)
	q.Insert(upd(1, 1, 1))
	q.Insert(upd(2, 2, 2))
	sup, ev := q.Insert(upd(3, 3, 3))
	if sup != nil || ev == nil || ev.Object != 1 {
		t.Fatalf("capacity: superseded %v and evicted %v, want object 1 evicted", sup, ev)
	}
	// A replace at capacity does not lengthen the queue: nothing is
	// evicted.
	if sup, ev := q.Insert(upd(4, 2, 4)); sup == nil || sup.Seq != 2 || ev != nil {
		t.Fatalf("replace at capacity: superseded %v and evicted %v, want seq 2 superseded", sup, ev)
	}
}

func TestCoalescingQueueDiscardOlderGen(t *testing.T) {
	q := newCoalescingQueue(0, 1)
	q.Insert(upd(1, 1, 1))
	q.Insert(upd(2, 2, 5))
	out := q.DiscardOlderGen(3)
	if len(out) != 1 || out[0].Object != 1 {
		t.Fatalf("discarded = %v", out)
	}
	if q.NewestFor(1) != nil {
		t.Fatal("discarded object still indexed")
	}
}

func TestQuickCoalescedMatchesGenQueueNewest(t *testing.T) {
	// For any insert sequence, the coalesced queue's per-object view
	// must equal the newest-per-object of an unbounded GenQueue.
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		cq := newCoalescingQueue(0, 3)
		gq := NewGenQueue(0, 4)
		var seq uint64
		for i := 0; i < int(nOps)*2; i++ {
			u := upd(seq, model.ObjectID(r.Intn(4)), float64(r.Intn(30)))
			seq++
			cq.Insert(u)
			gq.Insert(upd(u.Seq, u.Object, u.GenTime))
		}
		for obj := model.ObjectID(0); obj < 4; obj++ {
			want := gq.NewestFor(obj)
			got := cq.NewestFor(obj)
			if (want == nil) != (got == nil) {
				return false
			}
			if want != nil && (want.Seq != got.Seq || want.GenTime != got.GenTime) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOSQueueFIFO(t *testing.T) {
	q := NewOSQueue(4)
	for i := 0; i < 3; i++ {
		if !q.Offer(upd(uint64(i), 0, float64(i))) {
			t.Fatalf("Offer %d rejected", i)
		}
	}
	if q.Len() != 3 || q.Cap() != 4 {
		t.Fatalf("Len/Cap = %d/%d", q.Len(), q.Cap())
	}
	if q.Peek().Seq != 0 {
		t.Fatal("Peek should return head")
	}
	for i := 0; i < 3; i++ {
		if got := q.Poll(); got.Seq != uint64(i) {
			t.Fatalf("Poll %d returned seq %d", i, got.Seq)
		}
	}
	if q.Poll() != nil || q.Peek() != nil {
		t.Fatal("empty queue should return nil")
	}
}

func TestOSQueueDropsWhenFull(t *testing.T) {
	q := NewOSQueue(2)
	q.Offer(upd(1, 0, 0))
	q.Offer(upd(2, 0, 0))
	if q.Offer(upd(3, 0, 0)) {
		t.Fatal("Offer on full queue accepted")
	}
	if q.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", q.Dropped())
	}
	// Wrap-around: poll one, offer one.
	q.Poll()
	if !q.Offer(upd(4, 0, 0)) {
		t.Fatal("Offer after Poll rejected")
	}
	if got := q.Poll(); got.Seq != 2 {
		t.Fatalf("head after wrap = %d, want 2", got.Seq)
	}
	if got := q.Poll(); got.Seq != 4 {
		t.Fatalf("next after wrap = %d, want 4", got.Seq)
	}
}

func TestOSQueueZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewOSQueue(0) should panic")
		}
	}()
	NewOSQueue(0)
}

func TestQuickOSQueueFIFOProperty(t *testing.T) {
	f := func(offers []uint8) bool {
		q := NewOSQueue(8)
		var want []uint64
		for i, b := range offers {
			if b%2 == 0 {
				u := upd(uint64(i), 0, 0)
				if q.Offer(u) {
					want = append(want, u.Seq)
				}
			} else if len(want) > 0 {
				got := q.Poll()
				if got == nil || got.Seq != want[0] {
					return false
				}
				want = want[1:]
			} else if q.Poll() != nil {
				return false
			}
		}
		return q.Len() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
