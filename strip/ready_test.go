package strip

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The ready transactions: the simulator's value-density queue
// (uqueue.NewReadyQueue) ranks them, a second ordering of the same
// entries by latest start feeds the reap, and a transaction leaves both
// the moment it is picked, reaped or failed at shutdown.

// testReq is a transaction request as Exec builds one, for tests that
// hand it to the scheduler themselves.
func testReq(id uint64, value float64, estimate time.Duration, deadline time.Time, body func(*Tx) error) *txnReq {
	req := &txnReq{
		spec: TxnSpec{Value: value, Estimate: estimate, Deadline: deadline, Func: body},
		res:  make(chan Result, 1),
	}
	req.ID = id
	return req
}

// TestActReportsWorkWhileATxnIsReady pins what lets idleWait park
// without a deadline timer: at every scheduling point at which a
// transaction is ready, act reports work — the policy table then
// answers RunTxn or an install of a class with a backlog — so the
// scheduler goroutine never parks, and never sleeps through a deadline,
// with a transaction ready.
func TestActReportsWorkWhileATxnIsReady(t *testing.T) {
	for _, policy := range []Policy{UpdatesFirst, TransactionsFirst, SplitUpdates, OnDemand} {
		for _, run := range []int{1, installRunLen} {
			for backlog := 0; backlog < 8; backlog++ {
				high, low, ready := backlog&1 != 0, backlog&2 != 0, backlog&4 != 0
				name := fmt.Sprintf("%v/run%d/high=%v,low=%v,txn=%v", policy, run, high, low, ready)
				t.Run(name, func(t *testing.T) {
					clock := newFakeClock()
					db := mustOpenStepped(t, Config{Policy: policy, Clock: clock.Now})
					db.DefineView("h", High)
					db.DefineView("l", Low)
					for obj, on := range map[string]bool{"h": high, "l": low} {
						for i := 0; on && i < 3; i++ {
							if err := db.ApplyUpdate(Update{Object: obj, Value: float64(i)}); err != nil {
								t.Fatal(err)
							}
						}
					}
					if ready {
						db.txnCh <- testReq(1, 1, 0, clock.Now().Add(time.Hour), func(*Tx) error { return nil })
					}
					points := 0
					for db.intake(); ; db.intake() {
						txnReady := db.ready.Len() > 0
						worked := db.act(run)
						if txnReady && !worked {
							t.Fatalf("scheduling point %d: a transaction is ready and act reports no work", points)
						}
						if !worked {
							break
						}
						points++
					}
					if points == 0 && (high || low || ready) {
						t.Fatal("act found no work in a backlog")
					}
					committed := uint64(0)
					if ready {
						committed = 1
					}
					if s := db.Stats(); s.QueueLen != 0 || db.ready.Len() != 0 || s.TxnsCommitted != committed {
						t.Fatalf("idle with work left or the transaction not run: %+v", s)
					}
				})
			}
		}
	}
}

// TestReapAtTheSharedLatestStart: a transaction without an estimate and
// one with an estimate, both with latest start L. At L the first has
// reached its deadline and the second may still start; just after L
// both are hopeless. The latest-start order puts the one without an
// estimate first, so the reap, which stops at the first live entry,
// finds it.
func TestReapAtTheSharedLatestStart(t *testing.T) {
	clock := newFakeClock()
	db := mustOpenStepped(t, Config{Policy: TransactionsFirst, Clock: clock.Now})
	latest := clock.Now().Add(time.Second)
	body := func(*Tx) error { return nil }
	estimated := testReq(1, 1, time.Second, latest.Add(time.Second), body)
	bare := testReq(2, 1, 0, latest, body)
	db.txnCh <- estimated
	db.txnCh <- bare
	db.intake()
	clock.Advance(time.Second)
	db.intake()
	if db.ready.Len() != 1 || db.due.Len() != 1 || db.ready.Top() != estimated {
		t.Fatalf("at the shared latest start: %d ready, %d due, want only the estimated one", db.ready.Len(), db.due.Len())
	}
	if res := <-bare.res; res.State != AbortedDeadline {
		t.Errorf("transaction at its deadline: %+v, want AbortedDeadline", res)
	}
	clock.Advance(time.Nanosecond)
	db.intake()
	if db.ready.Len() != 0 || db.due.Len() != 0 {
		t.Fatalf("past the latest start %d remain ready", db.ready.Len())
	}
	if res := <-estimated.res; res.State != AbortedDeadline {
		t.Errorf("transaction past its latest start: %+v, want AbortedDeadline", res)
	}
}

// scanReady is the engine's ready list before the two heaps, kept as
// the fuzzer's reference: a slice in admission order, a linear scan for
// the densest (the first of equals wins), and a rescan that reaps the
// hopeless. It ranks a transaction without an estimate by the model's
// rule, value·10¹².
type scanReady struct{ list []*txnReq }

func scanPriority(req *txnReq) float64 {
	if req.spec.Estimate > 0 {
		return req.spec.Value / req.spec.Estimate.Seconds()
	}
	return req.spec.Value * 1e12
}

func (s *scanReady) pick() *txnReq {
	best := -1
	for i, req := range s.list {
		if best < 0 || scanPriority(req) > scanPriority(s.list[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	req := s.list[best]
	s.list = append(s.list[:best], s.list[best+1:]...)
	return req
}

func (s *scanReady) reap(now time.Time) (reaped []uint64) {
	kept := s.list[:0]
	for _, req := range s.list {
		if !now.Before(req.spec.Deadline) ||
			req.spec.Estimate > 0 && now.Add(req.spec.Estimate).After(req.spec.Deadline) {
			reaped = append(reaped, req.ID)
			continue
		}
		kept = append(kept, req)
	}
	s.list = kept
	return reaped
}

// FuzzReadyQueueMatchesScan drives a stepped engine's ready queue with
// submissions, clock steps, scheduling points and a shutdown, decoded
// from the input three bytes an operation, beside scanReady. Values,
// estimates and deadlines come from a few whole milliseconds, so equal
// densities, missing estimates and shared latest starts are common.
// After every operation the two must agree on what was picked, what
// was reaped and how many remain. Inputs are cut at maxOps operations,
// fewer than the submission channel holds.
func FuzzReadyQueueMatchesScan(f *testing.F) {
	const maxOps = 200
	f.Add([]byte{0, 1, 9, 0, 1, 8, 0, 2, 4, 1, 0, 0, 2, 0, 0, 2, 0, 0})
	// An estimated transaction and one without an estimate, admitted in
	// that order, with latest start 2 ms; the clock reaches it.
	f.Add([]byte{0, 12, 1, 0, 8, 0, 1, 0, 0, 3, 2, 0, 1, 0, 0})
	f.Add([]byte{0, 8, 4, 0, 4, 0, 3, 4, 0, 1, 0, 0, 2, 0, 0, 3, 1, 0, 1, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 0, 17, 33, 0, 17, 33, 0, 17, 33, 1, 0, 0, 2, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*maxOps)]
		clock := newFakeClock()
		db := mustOpenStepped(t, Config{Policy: TransactionsFirst, Clock: clock.Now})
		var (
			ref     scanReady
			pending []*txnReq // submitted, not yet admitted
			live    = map[uint64]*txnReq{}
			picked  uint64
			nextID  uint64
		)
		// resolved returns the IDs of the transactions that have a
		// result, in ID order, and forgets them.
		resolved := func() (ids []uint64) {
			for id, req := range live {
				select {
				case <-req.res:
					ids = append(ids, id)
					delete(live, id)
				default:
				}
			}
			slices.Sort(ids)
			return ids
		}
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := ops[i+1], ops[i+2]
			switch ops[i] % 5 {
			case 0: // submit
				nextID++
				id := nextID
				req := testReq(id, float64(a%4), time.Duration(b%4)*time.Millisecond,
					clock.Now().Add(time.Duration(a/4%8)*time.Millisecond),
					func(*Tx) error { picked = id; return nil })
				live[id] = req
				pending = append(pending, req)
				db.txnCh <- req
			case 1: // scheduling point: admit and reap
				db.intake()
				ref.list = append(ref.list, pending...)
				pending = nil
				want := ref.reap(clock.Now())
				slices.Sort(want)
				if got := resolved(); !slices.Equal(got, want) {
					t.Fatalf("op %d: reaped %v, the scan reaps %v", i/3, got, want)
				}
			case 2: // run the densest
				want := ref.pick()
				picked = 0
				if want == nil {
					if db.ready.Len() != 0 {
						t.Fatalf("op %d: the scan has nothing ready, the queue %d", i/3, db.ready.Len())
					}
					break
				}
				db.runNextTxn()
				got := resolved()
				if len(got) != 1 || got[0] != want.ID {
					t.Fatalf("op %d: picked %v, the scan picks %d", i/3, got, want.ID)
				}
				if (picked == want.ID) != (clock.Now().Before(want.spec.Deadline) &&
					!(want.spec.Estimate > 0 && clock.Now().Add(want.spec.Estimate).After(want.spec.Deadline))) {
					t.Fatalf("op %d: transaction %d ran=%v against the feasible-deadline test", i/3, want.ID, picked == want.ID)
				}
			case 3: // the clock moves
				clock.Advance(time.Duration(a%8) * time.Millisecond / time.Duration(1+b%2))
			case 4: // shutdown fails every one left
				db.shutdown()
				want := make([]uint64, 0, len(ref.list)+len(pending))
				for _, req := range append(ref.list, pending...) {
					want = append(want, req.ID)
				}
				slices.Sort(want)
				ref.list, pending = nil, nil
				if got := resolved(); !slices.Equal(got, want) {
					t.Fatalf("op %d: shutdown failed %v, want %v", i/3, got, want)
				}
			}
			if db.ready.Len() != len(ref.list) || db.due.Len() != len(ref.list) {
				t.Fatalf("op %d: %d ready and %d due, the scan holds %d", i/3, db.ready.Len(), db.due.Len(), len(ref.list))
			}
		}
	})
}

// TestExecAllocations pins what a transaction costs the allocator from
// submission to result, the scheduler's share included: the request,
// which is itself the ready queue's entry, its result channel, the Tx
// handle and the transaction body's closure context.
func TestExecAllocations(t *testing.T) {
	db := mustOpen(t, Config{Policy: TransactionsFirst})
	spec := TxnSpec{Value: 1, Estimate: time.Microsecond, Deadline: time.Now().Add(time.Hour), Func: func(*Tx) error { return nil }}
	db.Exec(spec)
	if allocs := testing.AllocsPerRun(200, func() {
		if res := db.Exec(spec); !res.Committed() {
			t.Errorf("transaction: %+v", res)
		}
	}); allocs > 4 {
		t.Errorf("Exec allocates %v times per transaction, want at most 4", allocs)
	}
}

// BenchmarkPickTxn is one scheduling point that admits a transaction
// and runs the densest of n ready ones, so that n stay ready: the cost
// of choosing among them (and of the reap before the choice), plus the
// submission and the finish every transaction pays.
func BenchmarkPickTxn(b *testing.B) {
	for _, n := range []int{1, 32, 256, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			clock := newFakeClock()
			db, err := open(Config{Policy: TransactionsFirst, Clock: clock.Now})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			deadline := clock.Now().Add(time.Hour)
			body := func(*Tx) error { return nil }
			submit := func() {
				db.txnCh <- testReq(0, rng.Float64(), time.Millisecond, deadline, body)
				db.intake()
			}
			for i := 1; i < n; i++ {
				submit()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
				db.act(1)
			}
		})
	}
}
