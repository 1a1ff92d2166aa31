package strip

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/strip/obs"
)

// TestMetricsSnapshotDeterministic pins the exposition contract end to
// end: two databases fed the same scripted history under the same
// injected clock must produce byte-identical /metrics snapshots. A
// per-scheduler-pass observation, a map-order leak in the registry, or
// a wall-clock read anywhere in the pipeline instrumentation shows up
// here as a diff.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	runOnce := func() []byte {
		clock := newFakeClock()
		reg := obs.NewRegistry()
		db := mustOpen(t, Config{
			Policy:     UpdatesFirst,
			MaxAge:     time.Second,
			Clock:      clock.Now,
			Metrics:    reg,
			TraceDepth: 8,
		})
		db.DefineView("a", Low)
		db.DefineView("b", High)
		ch, cancel, err := db.Watch("", 16)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		// Lockstep: wait for each install before the next arrival, so
		// both runs observe identical queue lengths and stage spans. The
		// watcher hears of an install before the scheduler reads the
		// clock to close its trigger span; the install's trace is
		// recorded after that reading, so the clock moves only then.
		installed := func(n int) {
			<-ch
			for len(db.Traces()) < n {
				runtime.Gosched()
			}
		}
		for i := 0; i < 5; i++ {
			db.ApplyUpdate(Update{Object: "a", Value: float64(i), Generated: clock.Now()})
			installed(i + 1)
			clock.Advance(10 * time.Millisecond)
		}
		db.ApplyUpdate(Update{Object: "b", Value: 42, Generated: clock.Now()})
		installed(6)
		res := db.Exec(TxnSpec{
			Name:     "t",
			Value:    3,
			Deadline: clock.Now().Add(time.Minute),
			Func: func(tx *Tx) error {
				_, err := tx.Read("a")
				return err
			},
		})
		if !res.Committed() {
			t.Fatalf("txn state = %v (%v)", res.State, res.Err)
		}
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := runOnce(), runOnce()
	if !bytes.Equal(first, second) {
		t.Errorf("metrics snapshots differ between identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestMaxStalenessPerObject pins the per-object staleness high-water
// mark: an update installed well past its generation time must raise
// the object's maximum, and other objects must be unaffected.
func TestMaxStalenessPerObject(t *testing.T) {
	clock := newFakeClock()
	db := mustOpen(t, Config{
		Policy: UpdatesFirst,
		// Generous MaxAge: the 2s-old update must be stale-ish yet
		// still young enough to install rather than expire.
		MaxAge: 10 * time.Second,
		Clock:  clock.Now,
	})
	db.DefineView("old", Low)
	db.DefineView("fresh", Low)
	ch, cancel, err := db.Watch("", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	db.ApplyUpdate(Update{Object: "old", Value: 1, Generated: clock.Now().Add(-2 * time.Second)})
	<-ch
	db.ApplyUpdate(Update{Object: "fresh", Value: 1, Generated: clock.Now()})
	<-ch

	got, err := db.MaxStaleness("old")
	if err != nil {
		t.Fatal(err)
	}
	if got < 1.9 || got > 2.1 {
		t.Errorf("MaxStaleness(old) = %v, want about 2s", got)
	}
	got, err = db.MaxStaleness("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if got > 0.1 {
		t.Errorf("MaxStaleness(fresh) = %v, want about 0", got)
	}
	if _, err := db.MaxStaleness("nosuch"); err == nil {
		t.Error("MaxStaleness on an unknown object should fail")
	}
}

// TestTraceRingCapturesPipeline pins the per-update trace: with
// TraceDepth set, every installed update leaves a trace whose install
// and trigger spans are stamped, newest first.
func TestTraceRingCapturesPipeline(t *testing.T) {
	clock := newFakeClock()
	db := mustOpen(t, Config{
		Policy:     UpdatesFirst,
		MaxAge:     time.Second,
		Clock:      clock.Now,
		TraceDepth: 4,
	})
	db.DefineView("a", Low)
	ch, cancel, err := db.Watch("", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for i := 0; i < 6; i++ {
		// Each generation must be newer than the last or the install
		// is skipped as superseded and never reaches the ring.
		clock.Advance(time.Millisecond)
		db.ApplyUpdate(Update{Object: "a", Value: float64(i), Generated: clock.Now()})
		<-ch
	}
	traces := db.Traces()
	if len(traces) != 4 {
		t.Fatalf("Traces() returned %d traces, want ring depth 4", len(traces))
	}
	for i, tr := range traces {
		if tr.Object != "a" {
			t.Errorf("trace %d object = %q", i, tr.Object)
		}
		if tr.Spans[obs.StageQueueWait] < 0 {
			t.Errorf("trace %d missing queue-wait span", i)
		}
		if tr.Spans[obs.StageInstall] < 0 {
			t.Errorf("trace %d missing install span", i)
		}
		if tr.Spans[obs.StageTrigger] < 0 {
			t.Errorf("trace %d missing trigger span", i)
		}
		// No WAL or replication in this setup: those spans stay unset.
		if tr.Spans[obs.StageWALFsync] >= 0 || tr.Spans[obs.StageReplPublish] >= 0 {
			t.Errorf("trace %d has spans for stages that never ran: %v", i, tr.Spans)
		}
	}
}

// histShape renders one histogram series of a registry compactly: the
// buckets at which the cumulative count rises, then sum and count, as
// WriteText prints them.
func histShape(t *testing.T, reg *obs.Registry, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	last := "0"
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || !strings.ContainsAny(rest[:1], "_{") {
			continue
		}
		if le, ok := strings.CutPrefix(rest, `_bucket{le="`); ok {
			edge, count, _ := strings.Cut(le, `"} `)
			if count != last {
				out = append(out, edge+":"+count)
				last = count
			}
			continue
		}
		out = append(out, strings.TrimPrefix(rest, "_"))
	}
	return strings.Join(out, " ")
}

// ledgerHistograms are the four series whose observation counts the
// Stats ledger determines.
var ledgerHistograms = []string{
	"strip_pipeline_queue_wait_seconds",
	"strip_pipeline_install_seconds",
	"strip_staleness_seconds",
	"strip_uu_backlog_updates",
}

// TestSteppedHistogramsGolden replays the seeded random trace of
// TestRunLengthDoesNotChangeTheSchedule — expiry, eviction, unworthy
// arrivals, OnDemand refreshes — through a stepped database on an
// injected clock, in runs of installRunLen, and pins what the four
// ledger histograms observed (in ledgerHistograms' order; the install
// span is zero because the clock stands still within a run). The shapes
// were recorded before queue wait, staleness and backlog were staged
// per run and the install span went in by ObserveN: how observations
// reach a histogram must not change which are made, nor their values.
func TestSteppedHistogramsGolden(t *testing.T) {
	golden := map[Policy][]string{
		UpdatesFirst: {
			"1e-06:189 0.0005:194 0.001:204 0.0025:214 0.005:240 0.01:301 0.025:434 0.05:498 0.1:505 sum 5.495498087 count 505",
			"1e-06:358 sum 0 count 358",
			"0.001:1 0.005:11 0.01:26 0.05:190 0.1:318 0.25:358 sum 19.541204286 count 358",
			"1:214 2:238 4:283 8:358 16:452 32:600 sum 5374 count 600",
		},
		TransactionsFirst: {
			"1e-06:189 0.001:192 0.0025:193 0.005:198 0.01:214 0.025:249 0.05:279 0.1:359 0.25:405 sum 14.475819048 count 405",
			"1e-06:303 sum 0 count 303",
			"0.001:1 0.005:11 0.01:24 0.05:110 0.1:190 0.25:302 0.5:303 sum 25.356008888 count 303",
			"1:203 2:216 4:241 8:286 16:362 32:600 sum 7052 count 600",
		},
		SplitUpdates: {
			"1e-06:189 0.0005:190 0.001:194 0.0025:198 0.005:206 0.01:234 0.025:304 0.05:348 0.1:411 0.25:443 sum 12.568719501 count 443",
			"1e-06:333 sum 0 count 333",
			"0.001:1 0.005:11 0.01:24 0.05:133 0.1:234 0.25:333 sum 25.051718554 count 333",
			"1:203 2:216 4:242 8:290 16:372 32:600 sum 6825 count 600",
		},
		OnDemand: {
			"1e-06:189 0.001:192 0.0025:193 0.005:199 0.01:216 0.025:250 0.05:280 0.1:354 0.25:397 sum 13.647646704 count 397",
			"1e-06:295 sum 0 count 295",
			"0.001:1 0.005:11 0.01:24 0.05:111 0.1:191 0.25:294 0.5:295 sum 24.266722675 count 295",
			"1:203 2:216 4:241 8:286 16:362 32:600 sum 7051 count 600",
		},
	}
	for _, policy := range []Policy{UpdatesFirst, TransactionsFirst, SplitUpdates, OnDemand} {
		t.Run(policy.String(), func(t *testing.T) {
			s := newRandomScript(1)
			clock := newFakeClock()
			db := mustOpenStepped(t, Config{
				Policy:        policy,
				MaxAge:        time.Duration(s.params.MaxAgeDelta * float64(time.Second)),
				OnStale:       Warn,
				QueueCapacity: s.queueCap,
				Clock:         clock.Now,
			})
			for id := 0; id < s.params.NumObjects(); id++ {
				if err := db.DefineView(viewName(model.ObjectID(id)), s.params.ObjectClass(model.ObjectID(id))); err != nil {
					t.Fatal(err)
				}
			}
			r := &liveRun{
				t: t, s: s, db: db, clock: clock, t0: clock.Now(),
				updates: s.updates, txns: s.txns, reqs: map[uint64]*txnReq{},
			}
			for {
				for db.intake(); db.act(installRunLen); db.intake() {
				}
				next, ok := r.nextArrival()
				if !ok {
					break
				}
				r.advanceTo(next)
			}
			for i, name := range ledgerHistograms {
				got := histShape(t, db.Metrics(), name)
				if want := golden[policy][i]; got != want {
					t.Errorf("%s\n got  %s\n want %s", name, got, want)
				}
			}
		})
	}
}

// TestHistogramsMatchTheLedger pins the four ledger histograms to the
// Stats counters, at scrapes taken between runs while a feed is being
// installed and after it has drained: every update received has one
// uu_backlog observation, and every update installed one queue-wait,
// one install and one staleness observation (queue wait is observed for
// every update popped, so the feed here carries no unworthy update). A
// scrape holds db.mu as Stats does, which puts it between two runs; an
// observation still staged when the scheduler released the lock would
// show as a histogram behind its counter.
func TestHistogramsMatchTheLedger(t *testing.T) {
	const views, total, window = 40, 150_000, 1024
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	names := make([]string, views)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		if err := db.DefineView(names[i], Low); err != nil {
			t.Fatal(err)
		}
	}
	hist := map[string]*obs.Histogram{}
	for _, name := range ledgerHistograms {
		h, ok := db.Metrics().HistogramFor(name)
		if !ok {
			t.Fatalf("no series %s", name)
		}
		hist[name] = h
	}
	// scrape reads counters and histograms under one hold of db.mu, as
	// Stats does, and fails the test once the lock is released (Close,
	// at cleanup, needs it).
	scrape := func(when string) Stats {
		t.Helper()
		var bad string
		db.mu.RLock()
		s := db.stats
		for _, name := range ledgerHistograms {
			want := s.UpdatesInstalled
			if name == "strip_uu_backlog_updates" {
				want = s.UpdatesReceived
			}
			if got := hist[name].Count(); got != want {
				bad = fmt.Sprintf("%s: %s has %d observations, the ledger says %d (%+v)", when, name, got, want, s)
			}
		}
		db.mu.RUnlock()
		if bad != "" {
			t.Fatal(bad)
		}
		return s
	}

	fed := make(chan struct{})
	go func() {
		defer close(fed)
		base := time.Now()
		for i := 0; i < total; i++ {
			u := Update{Object: names[i%views], Value: float64(i), Generated: base.Add(time.Duration(i + 1))}
			if err := db.ApplyUpdate(u); err != nil {
				t.Error(err)
				return
			}
			// A closed loop: nothing is dropped or evicted.
			for i%64 == 63 && db.Stats().UpdatesInstalled+window < uint64(i) {
				runtime.Gosched()
			}
		}
	}()
	t.Cleanup(func() { <-fed }) // before Close, should a scrape fail the test early
	underLoad := 0
	for feeding := true; feeding; {
		select {
		case <-fed:
			feeding = false
		default:
		}
		s := scrape("under load")
		if s.UpdatesInstalled > 0 && s.UpdatesInstalled < total {
			underLoad++
		}
		runtime.Gosched()
	}
	for db.Stats().UpdatesInstalled < total {
		runtime.Gosched()
	}
	scrape("drained")
	if s := db.Stats(); s.UpdatesReceived != total || s.UpdatesSkipped+s.UpdatesDropped+s.UpdatesEvicted != 0 {
		t.Fatalf("the feed was meant to be installed whole: %+v", s)
	}
	if underLoad == 0 {
		t.Error("no scrape fell between two runs of a feed still being installed")
	}
}
