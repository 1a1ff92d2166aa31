package strip

import (
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// ingestRing is the ingest buffer — the paper's OS queue between the
// update stream and the scheduler's receive step: a bounded ring of
// exactly n slots with many producers and one consumer, on which
// neither an offer nor a receive takes a lock.
//
// Positions count up from zero; position p lives in slot p mod n. tail
// is the next position to claim and head the next to receive, so
// tail − head (never more than n) is how many positions are claimed and
// not yet received. A slot is one pointer and nil means empty: a
// producer claims a position with one CAS on tail, after checking
// tail − head < n, and then stores its update in the slot; the consumer
// takes the head slot, clears it and advances head. A position can be
// claimed but not yet filled — its producer is between the CAS and the
// store — so the consumer reads the head slot, not tail, to know
// whether an update is there, and receives in position order: nothing
// behind an unfilled head slot is taken before it.
//
// Parking is a Dekker handshake on sleeping. The consumer sets the
// flag, looks at the head slot once more and parks on bell only if it
// is still empty; a producer stores first and then reads the flag,
// ringing bell when it is set. Go's atomics are sequentially
// consistent, so either the consumer sees the update or its producer
// sees the flag: the producer that fills the head slot wakes a parked
// consumer, and no producer's update waits for a wake-up that never
// comes. A producer that fills a later slot rings too, and the consumer
// wakes, finds the head slot empty and parks again; every wake-up is
// paid for by a store, so an unfilled head slot makes the consumer
// wait, never spin.
//
// waiting is the same handshake the other way round, for a producer
// that blocks on a full ring (ApplyReplicated): it counts itself in,
// looks once more for room, and parks on space; the consumer advances
// head and then rings space if anybody is counted.
//
// consumer serialises whoever takes updates out: the scheduler's
// receive, and the sweeps of a closed database (see dropStranded). It
// is taken once per burst, never by an offer.
type ingestRing struct {
	slots []atomic.Pointer[model.Update]
	n     uint64
	bell  chan struct{} // 1 slot: wakes the parked consumer
	space chan struct{} // 1 slot: wakes a producer waiting for room

	// tail is written by every producer and head by the consumer for
	// every update; each gets a cache line of its own so that the two
	// sides' writes do not invalidate each other's reads of the
	// read-mostly fields. consumer shares head's line: the consumer
	// writes both.
	_        [64]byte
	tail     atomic.Uint64
	_        [56]byte
	head     atomic.Uint64
	consumer sync.Mutex

	// The flags of the two parking handshakes: read on every offer
	// (sleeping) or burst (waiting), written when somebody parks.
	_        [48]byte
	sleeping atomic.Bool
	waiting  atomic.Int32
}

func newIngestRing(n int) *ingestRing {
	return &ingestRing{
		slots: make([]atomic.Pointer[model.Update], n),
		n:     uint64(n),
		bell:  make(chan struct{}, 1),
		space: make(chan struct{}, 1),
	}
}

// offer puts u at the ring's tail, reporting false — and leaving the
// ring as it was — when all n slots are claimed.
func (r *ingestRing) offer(u *model.Update) bool {
	p, ok := r.claim()
	if ok {
		r.fill(p, u)
	}
	return ok
}

// claim reserves the next position, unless all n are claimed. It is the
// first half of offer; fill, which must follow, is the second.
func (r *ingestRing) claim() (uint64, bool) {
	for {
		t := r.tail.Load()
		if t-r.head.Load() >= r.n {
			return 0, false
		}
		if r.tail.CompareAndSwap(t, t+1) {
			return t, true
		}
	}
}

// fill stores u at the claimed position p and wakes a parked consumer.
// The slot is empty: p was claimed while head was past p − n, and the
// consumer clears a slot before it advances head over it.
func (r *ingestRing) fill(p uint64, u *model.Update) {
	r.slots[p%r.n].Store(u)
	if r.sleeping.Load() {
		ring(r.bell)
	}
}

// offerWait is offer that waits for room instead of failing, until stop
// is closed; it reports whether u went in.
func (r *ingestRing) offerWait(u *model.Update, stop <-chan struct{}) bool {
	for !r.offer(u) {
		r.waiting.Add(1)
		if r.offer(u) {
			r.waiting.Add(-1)
			return true
		}
		select {
		case <-r.space:
			r.waiting.Add(-1)
		case <-stop:
			r.waiting.Add(-1)
			return false
		}
	}
	return true
}

// len is the number of claimed positions not yet received: the filled
// slots plus those whose producer has still to store.
func (r *ingestRing) len() uint64 {
	return r.tail.Load() - r.head.Load()
}

// poll takes the update in the head slot, or returns nil when the slot
// is empty — nothing was offered, or its producer has claimed the
// position and not yet filled it. Callers hold r.consumer.
func (r *ingestRing) poll() *model.Update {
	h := r.head.Load()
	s := &r.slots[h%r.n]
	u := s.Load()
	if u == nil {
		return nil
	}
	s.Store(nil)
	r.head.Store(h + 1)
	return u
}

// freed wakes a producer waiting for room, if one is counted. The
// consumer calls it after a burst of polls.
func (r *ingestRing) freed() {
	if r.waiting.Load() > 0 {
		ring(r.space)
	}
}

// sleep announces that the consumer is about to park on bell and
// reports whether it may: false when the head slot has been filled in
// the meantime, in which case the announcement is withdrawn. A
// consumer that parks calls awake once it runs again.
func (r *ingestRing) sleep() bool {
	r.sleeping.Store(true)
	if r.slots[r.head.Load()%r.n].Load() != nil {
		r.sleeping.Store(false)
		return false
	}
	return true
}

// awake withdraws sleep's announcement: producers stop ringing.
func (r *ingestRing) awake() {
	r.sleeping.Store(false)
}

// ring leaves a token in a one-slot doorbell unless one is there
// already.
func ring(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}
