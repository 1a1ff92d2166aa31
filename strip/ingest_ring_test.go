package strip

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// The ingest ring alone (ingest_ring.go), then inside a running
// database.

// ringUpdate is the i-th update of a test stream: its sequence number
// is what the tests compare.
func ringUpdate(i int) *model.Update { return &model.Update{Seq: uint64(i)} }

// TestIngestRingDropsWhatTheChannelDropped drives the ring and the
// buffered channel it replaced through the same seeded script of offers
// and partial receives: every offer is accepted or dropped alike, and
// the same updates come out in the same order. Capacities 1 and 2 are
// the small ends where an off-by-one in the full check shows; 3 and 5
// are not powers of two.
func TestIngestRingDropsWhatTheChannelDropped(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r := newIngestRing(n)
			ch := make(chan *model.Update, n)
			rng := rand.New(rand.NewSource(int64(n)))
			next, accepted, dropped := 0, 0, 0
			for step := 0; step < 10000; step++ {
				if rng.Intn(3) > 0 {
					u := ringUpdate(next)
					next++
					var want bool
					select {
					case ch <- u:
						want = true
					default:
					}
					if got := r.offer(u); got != want {
						t.Fatalf("step %d: offer of update %d accepted %v, the channel's %v", step, u.Seq, got, want)
					}
					if want {
						accepted++
					} else {
						dropped++
					}
					continue
				}
				for k := rng.Intn(n + 2); k > 0; k-- {
					var want *model.Update
					select {
					case want = <-ch:
					default:
					}
					if got := r.poll(); got != want {
						t.Fatalf("step %d: received %v, the channel %v", step, got, want)
					}
				}
				if r.len() != uint64(len(ch)) {
					t.Fatalf("step %d: length %d, the channel's %d", step, r.len(), len(ch))
				}
			}
			if accepted == 0 || dropped == 0 {
				t.Fatalf("the script accepted %d and dropped %d: both paths must be taken", accepted, dropped)
			}
		})
	}
}

// TestIngestRingUnfilledHeadSlotParks: a position that is claimed but
// not yet filled reads as empty at the head even with a later slot
// filled, so the consumer receives nothing and may park — no doorbell
// token is waiting to wake it — and the store into the head slot rings
// the doorbell and releases both updates, in position order.
func TestIngestRingUnfilledHeadSlotParks(t *testing.T) {
	r := newIngestRing(4)
	head, ok := r.claim()
	if !ok {
		t.Fatal("an empty ring refused a claim")
	}
	if !r.offer(ringUpdate(1)) {
		t.Fatal("a ring with one claimed position refused an offer")
	}
	if u := r.poll(); u != nil || r.len() != 2 {
		t.Fatalf("poll behind an unfilled head slot = %v (length %d), want nil (2)", u, r.len())
	}
	if !r.sleep() {
		t.Fatal("sleep refused to park on an unfilled head slot")
	}
	select {
	case <-r.bell:
		t.Fatal("the doorbell rang before the head slot was filled: the consumer would spin")
	case <-time.After(20 * time.Millisecond):
	}
	r.fill(head, ringUpdate(0))
	select {
	case <-r.bell:
	default:
		t.Fatal("filling the head slot did not ring the doorbell of a sleeping consumer")
	}
	r.awake()
	for want := uint64(0); want < 2; want++ {
		if u := r.poll(); u == nil || u.Seq != want {
			t.Fatalf("poll = %v, want update %d", u, want)
		}
	}
	if r.poll() != nil || r.len() != 0 {
		t.Fatal("the ring is not empty after both updates")
	}

	// Awake, a consumer is not rung: producers pay one load, no send.
	r.offer(ringUpdate(2))
	select {
	case <-r.bell:
		t.Fatal("an offer rang the doorbell of a consumer that is not sleeping")
	default:
	}
	// And a consumer that announces sleep with an update waiting does
	// not park.
	if r.sleep() || r.sleeping.Load() {
		t.Fatal("sleep parked over a filled head slot")
	}
}

// TestIngestRingUnfilledHeadSlotParksTheScheduler is the same rule in a
// running database: with the head position claimed and a later offer
// filled behind it before the scheduler starts, the scheduler receives
// nothing and parks for good — the sleeping flag does not flicker as it
// would if the scheduler woke again and again — and filling the head
// slot gets both received.
func TestIngestRingUnfilledHeadSlotParksTheScheduler(t *testing.T) {
	db, err := open(Config{Policy: UpdatesFirst})
	if err != nil {
		t.Fatal(err)
	}
	db.DefineView("x", Low)
	ref, _ := db.lookup("x")
	head, ok := db.ingest.claim()
	if !ok {
		t.Fatal("claim refused")
	}
	if err := db.ApplyUpdate(Update{Object: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	go db.loop()
	t.Cleanup(func() { db.Close() })
	waitFor(t, 5*time.Second, db.ingest.sleeping.Load)
	for i := 0; i < 2000; i++ {
		if !db.ingest.sleeping.Load() {
			t.Fatalf("sample %d: the scheduler woke up with nothing it could receive", i)
		}
		if i%100 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if s := db.Stats(); s.UpdatesReceived != 0 {
		t.Fatalf("received %d behind an unfilled head slot, want 0", s.UpdatesReceived)
	}
	now := db.secs(time.Now())
	db.ingest.fill(head, &model.Update{Seq: db.arrival.Add(1), Object: ref.id, Class: Low, GenTime: now, ArrivalTime: now})
	waitFor(t, 5*time.Second, func() bool {
		s := db.Stats()
		return s.UpdatesReceived == 2 && s.QueueLen == 0
	})
}

// TestIngestRingConcurrentOffersBalance races four producers — three
// offering, one replicating into a small buffer that blocks it — against
// the running scheduler and a Close partway through. Every offer that
// returned nil ends up received or dropped, and no update is received
// twice: offered = dropped + received, each received update settles
// once or is still queued, and strip_updates_unaccounted reads 0. Run
// under -race (make race).
func TestIngestRingConcurrentOffersBalance(t *testing.T) {
	const views = 16
	db, err := open(Config{Policy: UpdatesFirst, IngestBuffer: 7, QueueCapacity: 8, MaxAge: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	settled := map[uint64]int{}
	db.onSettle = func(u *model.Update, _ settleCause) { settled[u.Seq]++ } // scheduler only, under db.mu
	go db.loop()
	defer db.Close()
	names := make([]string, views)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		if err := db.DefineView(names[i], Importance(i%2)); err != nil {
			t.Fatal(err)
		}
	}

	var offered atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				u := Update{Object: names[(i+g)%views], Value: float64(i)}
				if i%7 == 0 {
					u.Generated = time.Now().Add(-time.Minute) // expires
				}
				var err error
				if g == 3 {
					err = db.ApplyReplicated(u, Low)
				} else {
					err = db.ApplyUpdate(u)
				}
				switch {
				case err == nil:
					offered.Add(1)
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("producer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	waitFor(t, time.Minute, func() bool { return db.Stats().UpdatesInstalled >= 5000 })
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	s := db.Stats()
	if got := s.UpdatesDropped + s.UpdatesReceived; got != offered.Load() {
		t.Errorf("offered %d != dropped %d + received %d", offered.Load(), s.UpdatesDropped, s.UpdatesReceived)
	}
	if s.UpdatesDropped == 0 {
		t.Logf("no offer was dropped this time: %+v", s)
	}
	for seq, n := range settled {
		if n != 1 {
			t.Errorf("update %d settled %d times", seq, n)
		}
	}
	if got := uint64(len(settled)) + uint64(s.QueueLen); got != s.UpdatesReceived {
		t.Errorf("received %d, but %d settled and %d are queued", s.UpdatesReceived, len(settled), s.QueueLen)
	}
	if u, ok := db.Metrics().Value("strip_updates_unaccounted"); !ok || u != 0 {
		t.Errorf("strip_updates_unaccounted = %v (present %v), want 0", u, ok)
	}
}

// FuzzIngestRingMatchesFIFO holds the ring to a bounded slice FIFO. The
// first byte picks the capacity; each later byte is a step — an offer,
// a receive of up to k updates, or a sweep of everything — and after
// every step the two agree on what each offer answered, on the updates
// received and their order, and on the length.
func FuzzIngestRingMatchesFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x41, 0})
	f.Add([]byte{1, 0, 0, 0, 0x42, 0, 0xc0})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 0x45, 0, 0, 0xc0, 0, 0x43})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		n := int(script[0]%16) + 1
		r := newIngestRing(n)
		var fifo []*model.Update
		next := 0
		for step, b := range script[1:] {
			switch {
			case b < 0x40: // offer
				u := ringUpdate(next)
				next++
				want := len(fifo) < n
				if want {
					fifo = append(fifo, u)
				}
				if got := r.offer(u); got != want {
					t.Fatalf("step %d: offer with %d of %d queued answered %v", step, len(fifo), n, got)
				}
			case b < 0xc0: // receive up to k
				for k := int(b-0x40)%(n+1) + 1; k > 0; k-- {
					var want *model.Update
					if len(fifo) > 0 {
						want, fifo = fifo[0], fifo[1:]
					}
					if got := r.poll(); got != want {
						t.Fatalf("step %d: received %v, the FIFO %v", step, got, want)
					}
				}
			default: // sweep
				for u := r.poll(); u != nil; u = r.poll() {
					if len(fifo) == 0 || fifo[0] != u {
						t.Fatalf("step %d: sweep took %v, the FIFO holds %v", step, u, fifo)
					}
					fifo = fifo[1:]
				}
				if len(fifo) != 0 {
					t.Fatalf("step %d: sweep left %d in the FIFO", step, len(fifo))
				}
			}
			if r.len() != uint64(len(fifo)) {
				t.Fatalf("step %d: length %d, the FIFO's %d", step, r.len(), len(fifo))
			}
		}
	})
}
