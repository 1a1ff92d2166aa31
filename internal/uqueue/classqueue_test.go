package uqueue

import (
	"testing"

	"repro/internal/model"
)

func newTestQueues(capacity int, coalesce bool) *ClassQueue {
	return NewClassQueue(capacity, 7, coalesce)
}

func cu(seq uint64, obj model.ObjectID, class model.Importance, gen float64) *model.Update {
	return &model.Update{Seq: seq, Object: obj, Class: class, GenTime: gen}
}

func TestClassQueueMergedFIFO(t *testing.T) {
	cq := newTestQueues(100, false)
	cq.Insert(cu(1, 0, model.Low, 5))
	cq.Insert(cu(2, 500, model.High, 3))
	cq.Insert(cu(3, 1, model.Low, 1))
	var gens []float64
	for cq.Len() > 0 {
		gens = append(gens, cq.Pop(model.FIFO, -1).GenTime)
	}
	want := []float64{1, 3, 5}
	for i := range want {
		if gens[i] != want[i] {
			t.Fatalf("merged FIFO = %v, want %v", gens, want)
		}
	}
}

func TestClassQueueMergedLIFO(t *testing.T) {
	cq := newTestQueues(100, false)
	cq.Insert(cu(1, 0, model.Low, 5))
	cq.Insert(cu(2, 500, model.High, 9))
	cq.Insert(cu(3, 1, model.Low, 1))
	var gens []float64
	for cq.Len() > 0 {
		gens = append(gens, cq.Pop(model.LIFO, -1).GenTime)
	}
	want := []float64{9, 5, 1}
	for i := range want {
		if gens[i] != want[i] {
			t.Fatalf("merged LIFO = %v, want %v", gens, want)
		}
	}
}

func TestClassQueueMergedTieBreak(t *testing.T) {
	cq := newTestQueues(100, false)
	cq.Insert(cu(2, 500, model.High, 5))
	cq.Insert(cu(1, 0, model.Low, 5))
	// Equal generations: lower sequence wins FIFO.
	if got := cq.Pop(model.FIFO, -1).Seq; got != 1 {
		t.Fatalf("FIFO tie-break popped seq %d, want 1", got)
	}
}

func TestClassQueueClassPop(t *testing.T) {
	cq := newTestQueues(100, false)
	cq.Insert(cu(1, 0, model.Low, 1))
	cq.Insert(cu(2, 500, model.High, 2))
	if got := cq.Pop(model.FIFO, int(model.High)); got.Class != model.High {
		t.Fatalf("class pop returned %v update", got.Class)
	}
	if cq.LenClass(model.High) != 0 || cq.LenClass(model.Low) != 1 {
		t.Fatal("class lengths wrong after class pop")
	}
}

func TestClassQueueJointCapacity(t *testing.T) {
	cq := newTestQueues(3, false)
	cq.Insert(cu(1, 0, model.Low, 1))
	cq.Insert(cu(2, 500, model.High, 2))
	cq.Insert(cu(3, 1, model.Low, 3))
	sup, ev := cq.Insert(cu(4, 501, model.High, 4))
	if sup != nil || ev == nil || ev.GenTime != 1 {
		t.Fatalf("joint overflow superseded %v and evicted %v, want only the globally oldest (gen 1) evicted", sup, ev)
	}
	if cq.Len() != 3 {
		t.Fatalf("Len = %d, want 3", cq.Len())
	}
}

func TestClassQueueEmptyPops(t *testing.T) {
	cq := newTestQueues(10, false)
	if cq.Pop(model.FIFO, -1) != nil || cq.Pop(model.LIFO, -1) != nil {
		t.Fatal("pop on empty queues should be nil")
	}
	if cq.Pop(model.FIFO, int(model.Low)) != nil {
		t.Fatal("class pop on empty queue should be nil")
	}
}

func TestClassQueueTakeForAndNewestFor(t *testing.T) {
	cq := newTestQueues(100, false)
	cq.Insert(cu(1, 42, model.Low, 1))
	cq.Insert(cu(2, 42, model.Low, 7))
	cq.Insert(cu(3, 43, model.Low, 3))
	if got := cq.NewestFor(model.Low, 42); got.GenTime != 7 {
		t.Fatalf("NewestFor gen = %v, want 7", got.GenTime)
	}
	newest, sup := cq.TakeFor(model.Low, 42)
	if newest.GenTime != 7 || len(sup) != 1 {
		t.Fatalf("TakeFor = (%v, %d superseded)", newest.GenTime, len(sup))
	}
	if cq.Len() != 1 {
		t.Fatalf("Len after TakeFor = %d", cq.Len())
	}
}

func TestClassQueueDiscardBothClasses(t *testing.T) {
	cq := newTestQueues(100, false)
	cq.Insert(cu(1, 0, model.Low, 1))
	cq.Insert(cu(2, 500, model.High, 2))
	cq.Insert(cu(3, 1, model.Low, 9))
	out := cq.DiscardOlderGen(5)
	if len(out[model.Low]) != 1 || len(out[model.High]) != 1 {
		t.Fatalf("discarded %d low and %d high updates, want 1 and 1",
			len(out[model.Low]), len(out[model.High]))
	}
	if cq.Len() != 1 {
		t.Fatalf("Len = %d after discard", cq.Len())
	}
}

func TestClassQueueCoalescing(t *testing.T) {
	cq := newTestQueues(100, true)
	cq.Insert(cu(1, 42, model.Low, 1))
	sup, ev := cq.Insert(cu(2, 42, model.Low, 7))
	if sup == nil || sup.Seq != 1 || ev != nil {
		t.Fatalf("coalescing superseded %v and evicted %v, want seq 1 superseded", sup, ev)
	}
	if cq.Len() != 1 {
		t.Fatalf("coalesced Len = %d, want 1", cq.Len())
	}
}

func TestClassQueueCoalescingAtCapacity(t *testing.T) {
	// A coalescing replace does not lengthen the queue, so it must not
	// also evict for capacity; a new object at capacity must evict
	// exactly the globally oldest update.
	cq := newTestQueues(2, true)
	cq.Insert(cu(1, 42, model.Low, 1))
	cq.Insert(cu(2, 500, model.High, 2))
	if sup, ev := cq.Insert(cu(3, 42, model.Low, 3)); sup == nil || sup.Seq != 1 || ev != nil {
		t.Fatalf("replace at capacity superseded %v and evicted %v, want only the superseded seq 1", sup, ev)
	}
	if sup, ev := cq.Insert(cu(4, 43, model.Low, 4)); sup != nil || ev == nil || ev.Seq != 2 {
		t.Fatalf("overflow superseded %v and evicted %v, want the globally oldest (seq 2) evicted", sup, ev)
	}
	// An arrival for a new object that is older than everything queued
	// is its own overflow victim: evicted, not superseded.
	arrival := cu(5, 44, model.High, 0)
	if sup, ev := cq.Insert(arrival); sup != nil || ev != arrival {
		t.Fatalf("oldest arrival at capacity: superseded %v and evicted %v, want the arrival evicted", sup, ev)
	}
	if cq.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cq.Len())
	}
}
