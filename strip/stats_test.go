package strip

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/strip/fault"
)

// Stats served from a published copy: a read takes no lock, balances
// the ledgers, and allocates nothing; a scrape is one such read; and
// transaction submitters reach a core while a producer offers back to
// back.

// TestStatsTakesNoLock holds db.mu for writing, as the scheduler does
// for a whole install run, and reads Stats from another goroutine: the
// read returns while the lock is held, and so does the count of an
// Exec submitted meanwhile.
func TestStatsTakesNoLock(t *testing.T) {
	db := mustOpenStepped(t, Config{})
	db.DefineView("x", Low)
	if err := db.ApplyUpdate(Update{Object: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	db.intake()

	db.mu.Lock()
	stats := make(chan Stats)
	go func() { stats <- db.Stats() }()
	var bad string
	select {
	case s := <-stats:
		if s.UpdatesReceived != 1 || s.QueueLen != 1 {
			bad = fmt.Sprintf("Stats under the lock: received %d, queued %d; want 1 and 1", s.UpdatesReceived, s.QueueLen)
		}
	case <-time.After(10 * time.Second):
		bad = "Stats is waiting for db.mu"
	}
	result := make(chan Result, 1)
	if bad == "" {
		go func() { result <- db.Exec(TxnSpec{Func: func(*Tx) error { return nil }}) }()
		deadline := time.Now().Add(10 * time.Second)
		for db.Stats().TxnsSubmitted != 1 {
			if time.Now().After(deadline) {
				bad = "Exec is waiting for db.mu before it is counted"
				break
			}
			runtime.Gosched()
		}
	}
	db.mu.Unlock()
	if bad != "" {
		t.Fatal(bad)
	}
	for {
		db.step()
		select {
		case res := <-result:
			if !res.Committed() {
				t.Fatalf("transaction: %+v", res)
			}
			if s := db.Stats(); s.TxnsCommitted != 1 || s.UpdatesInstalled != 1 || s.QueueLen != 0 {
				t.Fatalf("after the run: %+v", s)
			}
			return
		default:
			runtime.Gosched()
		}
	}
}

// TestDegradedTakesNoLock degrades a database through a failed Sync,
// holds db.mu for writing and reads Degraded from another goroutine:
// it reads the published copy, so it returns, and reports the
// degradation, while the lock is held.
func TestDegradedTakesNoLock(t *testing.T) {
	fs := fault.NewMemFS()
	db := mustOpenStepped(t, Config{WALPath: "wal", FS: fs})
	fs.SetInjector(func(op fault.Op) (int, error) {
		if op.Kind == fault.OpSync {
			return 0, fault.ErrInjected
		}
		return 0, nil
	})
	if err := db.Sync(); !errors.Is(err, ErrDurability) {
		t.Fatalf("Sync under a failing fsync: %v", err)
	}
	fs.SetInjector(nil)

	db.mu.Lock()
	degraded := make(chan bool)
	go func() { degraded <- db.Degraded() }()
	var bad string
	select {
	case d := <-degraded:
		if !d {
			bad = "Degraded() = false after a failed Sync"
		}
	case <-time.After(10 * time.Second):
		bad = "Degraded is waiting for db.mu"
	}
	db.mu.Unlock()
	if bad != "" {
		t.Fatal(bad)
	}
}

// TestStatsAllocatesNothing: a Stats read is a copy of words.
func TestStatsAllocatesNothing(t *testing.T) {
	db := mustOpen(t, Config{})
	db.DefineView("x", Low)
	if err := db.ApplyUpdate(Update{Object: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	var s Stats
	if allocs := testing.AllocsPerRun(100, func() { s = db.Stats() }); allocs != 0 {
		t.Errorf("Stats allocates %v times per read, want 0", allocs)
	}
	_ = s
}

// TestStatsWordsRoundTrip: every Stats field the published copy carries
// survives statsWords and statsFromWords. The five Stats fills in itself
// — the producer-side counters and the replica-lag pair — are the only
// ones left out, so a field added to Stats and not to the copy fails
// here.
func TestStatsWordsRoundTrip(t *testing.T) {
	outside := map[string]bool{
		"UpdatesDropped": true, "FeedMalformed": true, "TxnsSubmitted": true,
		"ReplicaLagSeconds": true, "ReplicaLagUpdates": true,
	}
	var want Stats
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		if outside[v.Type().Field(i).Name] {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(1000 + i))
		case reflect.Int:
			f.SetInt(int64(1000 + i))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Stats.%s has kind %v, which statsWords does not carry", v.Type().Field(i).Name, f.Kind())
		}
	}
	if n := v.NumField() - len(outside); n != numStatsWords {
		t.Fatalf("Stats has %d fields the copy should carry, numStatsWords is %d", n, numStatsWords)
	}
	w := statsWords(&want)
	if got := statsFromWords(&w); got != want {
		t.Errorf("round trip\n got  %+v\n want %+v", got, want)
	}
}

// TestStatsQueueLenAfterARun: the queue length comes with the counters
// it balances. A run that installs 64 of 100 queued updates reports the
// 36 left, in the same read as the 64 installs.
func TestStatsQueueLenAfterARun(t *testing.T) {
	clock := newFakeClock()
	db := mustOpenStepped(t, Config{Policy: UpdatesFirst, Clock: clock.Now})
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("v%d", i)
		db.DefineView(name, Low)
		clock.Advance(time.Microsecond)
		if err := db.ApplyUpdate(Update{Object: name, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	db.intake()
	if s := db.Stats(); s.UpdatesReceived != 100 || s.QueueLen != 100 {
		t.Fatalf("after intake: received %d, queued %d; want 100 and 100", s.UpdatesReceived, s.QueueLen)
	}
	db.act(installRunLen)
	s := db.Stats()
	if s.UpdatesInstalled != 64 || s.QueueLen != 36 || !ledgerBalanced(s) {
		t.Fatalf("after a run of %d: installed %d, queued %d; want 64 and 36 (%+v)", installRunLen, s.UpdatesInstalled, s.QueueLen, s)
	}
}

// masterStats assembles Stats from the state the published copy is made
// of, under the lock, with the queue length read from the queue itself.
// The caller is the scheduler (a stepped database).
func masterStats(db *DB) Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.stats
	s.UpdatesDropped = db.dropped.Load()
	s.FeedMalformed = db.malformed.Load()
	s.TxnsSubmitted = db.submitted.Load()
	s.QueueLen = db.queue.Len()
	s.ReplicationSeq = db.seq
	s.WALErrors = db.dur.WALErrors()
	s.Degraded = db.dur.Degraded()
	s.DegradedHeals = db.dur.Heals()
	s.ReplicaLagSeconds, s.ReplicaLagUpdates = db.lag.Aggregate(db.appliedGenLocked)
	return s
}

// execStepped runs one transaction on a stepped database: the test is
// the scheduler, stepping until the submission has been served.
func execStepped(db *DB, spec TxnSpec) Result {
	result := make(chan Result, 1)
	go func() { result <- db.Exec(spec) }()
	for {
		db.step()
		select {
		case res := <-result:
			return res
		default:
			runtime.Gosched()
		}
	}
}

// TestStatsCopyFollowsEveryWriter walks a stepped database through every
// kind of critical section that changes a counter — receive, install
// run, overflow, on-demand refresh, expiry, commit, abort, failure, WAL
// failure, Sync, healing Checkpoint, replicated batch, snapshot install
// and reset, replicated updates — and after each compares Stats with
// the state it is published from: a writer that forgot to publish
// leaves the copy behind.
func TestStatsCopyFollowsEveryWriter(t *testing.T) {
	clock := newFakeClock()
	fs := fault.NewMemFS()
	db := mustOpenStepped(t, Config{
		Policy: UpdatesFirst, MaxAge: time.Second, QueueCapacity: 8,
		WALPath: "wal", FS: fs, Clock: clock.Now,
	})
	check := func(when string) {
		t.Helper()
		if got, want := db.Stats(), masterStats(db); got != want {
			t.Fatalf("%s: Stats\n got  %+v\n want %+v", when, got, want)
		}
	}
	const views = 16
	for i := 0; i < views; i++ {
		db.DefineView(fmt.Sprintf("v%d", i), Importance(i%2))
	}
	offer := func(n int) {
		for i := 0; i < n; i++ {
			clock.Advance(time.Millisecond)
			if err := db.ApplyUpdate(Update{Object: fmt.Sprintf("v%d", i%views), Value: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	offer(6)
	check("offered")
	db.intake()
	check("received")
	db.act(3)
	check("a run")
	offer(views)
	db.intake()
	if db.Stats().UpdatesEvicted == 0 {
		t.Fatal("the queue did not overflow")
	}
	check("overflow")
	ref, _ := db.lookup("v15")
	if !db.refreshOnDemand(ref.id, ref.class) {
		t.Fatal("nothing queued for v15")
	}
	check("on-demand refresh")
	clock.Advance(2 * time.Second)
	db.intake()
	if db.Stats().UpdatesExpired == 0 {
		t.Fatal("nothing expired")
	}
	check("expiry")

	set := func(key string) Result {
		return execStepped(db, TxnSpec{Deadline: clock.Now().Add(time.Hour), Func: func(tx *Tx) error { tx.Set(key, 1); return nil }})
	}
	if res := set("k1"); !res.Committed() {
		t.Fatalf("commit: %+v", res)
	}
	check("commit")
	if res := execStepped(db, TxnSpec{Deadline: clock.Now(), Func: func(*Tx) error { return nil }}); res.State != AbortedDeadline {
		t.Fatalf("past deadline: %+v", res)
	}
	check("abort")
	if res := execStepped(db, TxnSpec{Func: func(*Tx) error { return errors.New("no") }}); res.State != Failed {
		t.Fatalf("failing function: %+v", res)
	}
	check("failure")

	broken := true
	fs.SetInjector(func(op fault.Op) (int, error) {
		if broken && op.Kind == fault.OpWrite && op.Name == "wal" {
			return 0, fault.ErrInjected
		}
		return 0, nil
	})
	if res := set("k2"); !errors.Is(res.Err, ErrDurability) {
		t.Fatalf("commit under a WAL failure: %+v", res)
	}
	check("WAL failure")
	if err := db.Sync(); !errors.Is(err, ErrDurability) {
		t.Fatalf("Sync while degraded: %v", err)
	}
	check("Sync")
	broken = false
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Degraded {
		t.Fatal("the checkpoint did not heal")
	}
	check("healing checkpoint")

	if err := db.ApplyReplicatedBatch([]KeyValue{{Key: "r", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	check("replicated batch")
	snap := Snapshot{
		Views:   []SnapshotView{{Name: "s", Importance: High, Value: 1, Generated: clock.Now()}},
		General: []KeyValue{{Key: "g", Value: 2}},
	}
	if err := db.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check("snapshot install")
	if err := db.ResetToSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check("snapshot reset")
	for i := 0; i < 3; i++ {
		clock.Advance(time.Millisecond)
		if err := db.ApplyReplicated(Update{Object: "c", Value: float64(i), Generated: clock.Now()}, High); err != nil {
			t.Fatal(err)
		}
	}
	db.intake()
	if s := db.Stats(); s.ReplicaLagUpdates != 3 {
		t.Fatalf("replica lag %d updates, want 3", s.ReplicaLagUpdates)
	}
	check("replicated updates received")
	db.act(installRunLen)
	check("replicated updates installed")
}

// TestStatsBalanceUnderAFeed reads Stats against a running feed — with
// overflow, expiry, transactions and a replicated stream mixed in — and
// requires every read to balance both ledgers: received = installed +
// skipped + evicted + expired + queued, and no more transactions
// settled than submitted. Run under -race (make race).
func TestStatsBalanceUnderAFeed(t *testing.T) {
	const views, reads = 64, 20_000
	db := mustOpen(t, Config{Policy: OnDemand, MaxAge: 20 * time.Millisecond, QueueCapacity: 256, IngestBuffer: 512})
	names := make([]string, views)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		db.DefineView(names[i], Importance(i%2))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	wg.Add(3)
	go func() { // the feed, a fifth of it born stale
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			u := Update{Object: names[i%views], Value: float64(i)}
			if i%5 == 0 {
				u.Generated = time.Now().Add(-time.Second)
			}
			if err := db.ApplyUpdate(u); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // a replicated stream
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := db.ApplyReplicated(Update{Object: "r", Value: float64(i)}, High); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // transactions
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			db.Exec(TxnSpec{Func: func(tx *Tx) error {
				_, err := tx.Read(names[i%views])
				return err
			}})
		}
	}()
	// At least reads reads, and on until the feed and the transactions
	// have both got going.
	deadline := time.Now().Add(time.Minute)
	for i := 0; ; i++ {
		s := db.Stats()
		if !ledgerBalanced(s) {
			t.Fatalf("read %d: received %d != installed %d + skipped %d + evicted %d + expired %d + queued %d",
				i, s.UpdatesReceived, s.UpdatesInstalled, s.UpdatesSkipped, s.UpdatesEvicted, s.UpdatesExpired, s.QueueLen)
		}
		if settled := s.TxnsCommitted + s.TxnsAbortedDeadline + s.TxnsAbortedStale + s.TxnsFailed; settled > s.TxnsSubmitted {
			t.Fatalf("read %d: %d transactions settled, %d submitted", i, settled, s.TxnsSubmitted)
		}
		if i >= reads && s.UpdatesInstalled > 0 && s.TxnsCommitted > 0 {
			return
		}
		if i%64 == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("the feed did not run: %+v", s)
			}
			runtime.Gosched()
		}
	}
}

// scrapeSamples parses the sample lines of a text exposition.
func scrapeSamples(t *testing.T, text []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("sample line %q", line)
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[name] = x
	}
	return out
}

// TestScrapeIsOneSnapshot scrapes a database under a feed, repeatedly:
// strip_updates_unaccounted always reads 0, and the scraped counters
// themselves balance, because the mirrors of one scrape are one Stats
// read.
func TestScrapeIsOneSnapshot(t *testing.T) {
	const views, scrapes = 64, 300
	db := mustOpen(t, Config{Policy: UpdatesFirst, MaxAge: 20 * time.Millisecond, QueueCapacity: 256, IngestBuffer: 512})
	names := make([]string, views)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		db.DefineView(names[i], Importance(i%2))
	}
	var stop atomic.Bool
	fed := make(chan struct{})
	defer func() {
		stop.Store(true)
		<-fed
	}()
	go func() {
		defer close(fed)
		for i := 0; !stop.Load(); i++ {
			u := Update{Object: names[i%views], Value: float64(i)}
			if i%5 == 0 {
				u.Generated = time.Now().Add(-time.Second)
			}
			if err := db.ApplyUpdate(u); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	ledger := []string{
		"strip_updates_installed_total", "strip_updates_skipped_total",
		"strip_updates_evicted_total", "strip_updates_expired_total", "strip_queue_len",
	}
	var buf bytes.Buffer
	moved := 0
	deadline := time.Now().Add(time.Minute)
	// At least scrapes scrapes, and on until one has seen the feed.
	for i := 0; i < scrapes || moved == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no scrape saw the feed")
		}
		buf.Reset()
		if err := db.Metrics().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		m := scrapeSamples(t, buf.Bytes())
		if u, ok := m["strip_updates_unaccounted"]; !ok || u != 0 {
			t.Fatalf("scrape %d: strip_updates_unaccounted = %v (present %v)", i, u, ok)
		}
		sum := 0.0
		for _, name := range ledger {
			sum += m[name]
		}
		if received := m["strip_updates_received_total"]; sum != received {
			t.Fatalf("scrape %d: received %v, but the scraped fates sum to %v", i, received, sum)
		}
		if m["strip_updates_received_total"] > 0 {
			moved++
		}
		if u, ok := db.Metrics().Value("strip_updates_unaccounted"); !ok || u != 0 {
			t.Fatalf("Value(strip_updates_unaccounted) = %v (present %v)", u, ok)
		}
	}
}

// TestExecOvertakenByCloseIsCounted: a submission that Close overtakes
// — here the one still waiting to enter a full submission buffer — ends
// Failed with ErrClosed and is counted so, and the ledger balances:
// submitted = committed + aborted + failed.
func TestExecOvertakenByCloseIsCounted(t *testing.T) {
	db, err := open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	buffered := cap(db.txnCh)
	results := make(chan Result, buffered+1)
	exec := func() {
		results <- db.Exec(TxnSpec{Func: func(*Tx) error { return nil }})
	}
	for i := 0; i < buffered; i++ {
		go exec()
	}
	waitFor(t, 10*time.Second, func() bool { return len(db.txnCh) == buffered })
	go exec() // blocks: the buffer is full and no scheduler runs
	waitFor(t, 10*time.Second, func() bool { return db.Stats().TxnsSubmitted == uint64(buffered+1) })

	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	if res := <-results; res.State != Failed || !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("the overtaken submission: %+v", res)
	}
	go db.loop()
	for i := 0; i < buffered; i++ {
		if res := <-results; res.State != Failed || !errors.Is(res.Err, ErrClosed) {
			t.Fatalf("a buffered submission: %+v", res)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	settled := s.TxnsCommitted + s.TxnsAbortedDeadline + s.TxnsAbortedStale + s.TxnsFailed
	if s.TxnsSubmitted != settled || s.TxnsFailed != uint64(buffered+1) {
		t.Fatalf("submitted %d != committed %d + aborted %d + %d + failed %d",
			s.TxnsSubmitted, s.TxnsCommitted, s.TxnsAbortedDeadline, s.TxnsAbortedStale, s.TxnsFailed)
	}
}

// TestSubmittersGetACoreUnderAFeed holds the two waits of a
// transaction handed to a parked submitter while a producer offers back
// to back, on two processors: the p90 from the hand-off to
// Result.Started under 2 ms, and from Result.Finished to Exec's return
// under 1 ms (it is a context switch when nothing strands it). The
// producer never parks, so the submitter it readies runs only because
// ApplyUpdate yields every offerYield offers, and it is counted without
// waiting for db.mu (see Exec); the scheduler never parks either, so
// the submitter its result readies runs only because the scheduler
// yields once it has answered (see loop).
// Without the offer yield the first wait is the runtime's 10 ms
// preemption period (p90 5–6 ms on a 2-vCPU box); with Exec counting
// under db.mu again, the submitter is readied on the busy scheduler's
// processor and waits there, for the mutex's 1 ms starvation hand-off
// at best (p90 3–8 ms); without the scheduler's yield the second wait
// has a p90 of 2–6 ms. With all three, the p90s are 0.2–0.6 ms and
// 0.01–0.4 ms.
//
// The bound is on Go's scheduling, so it is judged only in runs in
// which the process had its two cores: one that got less than 1.6 cores
// of CPU time per second of wall time — another process was running,
// as inside a parallel `go test ./...` on two cores, where p90 reads
// 3–6 ms whatever the code does — is repeated, four runs at most, and
// if none had the cores the test skips. Run it alone to judge it. It
// fails if two runs that had the cores miss the bound. Under the race
// detector, which randomizes which goroutine a processor runs next, it
// does not run.
func TestSubmittersGetACoreUnderAFeed(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes which goroutine a processor runs next")
	}
	const startBound, returnBound, minCores = 2 * time.Millisecond, time.Millisecond, 1.6
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var misses [][2]time.Duration
	var cores []float64
	for run := 0; run < 4 && len(misses) < 2; run++ {
		started, returned, c := submitWaitP90s(t)
		cores = append(cores, c)
		switch {
		case c < minCores:
		case started < startBound && returned < returnBound:
			return
		default:
			misses = append(misses, [2]time.Duration{started, returned})
		}
	}
	if len(misses) == 0 {
		t.Skipf("no run had two cores (cores per run: %.2f); run the test alone", cores)
	}
	t.Fatalf("p90s of hand-off to Result.Started and of Result.Finished to Exec's return were %v in runs with two cores, want < %v and < %v",
		misses, startBound, returnBound)
}

// submitWaitP90s runs one feed on a new database with a transaction
// handed off every 1 ms and returns, over 1000 transactions after 100
// that warm the database up, the p90s of hand-off to Result.Started and
// of Result.Finished to Exec's return, and the CPU time the process got
// per second of the run.
func submitWaitP90s(t *testing.T) (started, returned time.Duration, cores float64) {
	const views, submitters, warmUp, txns = 1000, 8, 100, 1000
	db, err := Open(Config{Policy: OnDemand, IngestBuffer: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	names := make([]string, views)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		db.DefineView(names[i], Low)
	}
	type waits struct{ started, returned time.Duration }
	jobs := make(chan time.Time) // unbuffered: the hand-off readies a parked submitter
	done := make(chan waits, warmUp+txns)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for handed := range jobs {
				res := db.Exec(TxnSpec{
					Deadline: handed.Add(time.Second),
					Func: func(tx *Tx) error {
						_, err := tx.Read(names[i])
						return err
					},
				})
				returned := time.Since(res.Finished)
				if !res.Committed() {
					t.Errorf("transaction: %+v", res)
				}
				done <- waits{res.Started.Sub(handed), returned}
			}
		}(i)
	}
	cpu0, wall0 := processCPU(t), time.Now()
	next := wall0
	for i, handed := 0, 0; handed < warmUp+txns; i++ {
		if err := db.ApplyUpdate(Update{Object: names[i%views], Value: float64(i)}); err != nil {
			t.Error(err)
			break
		}
		if i%16 == 0 {
			if now := time.Now(); !now.Before(next) {
				jobs <- now
				handed++
				next = now.Add(time.Millisecond)
			}
		}
	}
	close(jobs)
	wg.Wait()
	close(done)
	cores = float64(processCPU(t)-cpu0) / float64(time.Since(wall0))
	var s, r []time.Duration
	for w := range done {
		s, r = append(s, w.started), append(r, w.returned)
	}
	if len(s) < warmUp+txns {
		t.Fatalf("%d transactions ran, want %d", len(s), warmUp+txns)
	}
	p90 := func(ds []time.Duration) time.Duration {
		ds = ds[warmUp:]
		slices.Sort(ds)
		return ds[len(ds)*9/10]
	}
	started, returned = p90(s), p90(r)
	t.Logf("p90 over %d transactions: hand-off to Result.Started %v, Result.Finished to return %v; %.2f cores", txns, started, returned, cores)
	return started, returned, cores
}

// processCPU is the CPU time the process has used, user and system.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
