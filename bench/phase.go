package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/strip"
)

// phaseOpts says how one phase runs. A run is one untraced phase; a
// traced run is several (see runTraced).
type phaseOpts struct {
	traced        bool
	policy        strip.Policy
	warm, measure time.Duration
	interval      time.Duration // width of the intervals the window is cut into
	setups        int           // engines built (all but the last torn down at once); their median time is setup_s
	load          int           // updates in each engine's initial load
	outDir        string
}

// counters is one reading of everything the engine counts, taken at an
// interval boundary.
type counters struct {
	at      int64 // ns from phase start
	offered uint64
	derived int64 // derived-view recomputes
	st, rst strip.Stats
}

// phaseResult is what one phase measured.
type phaseResult struct {
	m        map[string]float64 // metric name -> value
	n        map[string]int     // metric name -> samples it rests on
	problems []string           // correctness checks that failed
	// attempted counts updates offered plus transactions due; failed
	// counts calls that returned an error no workload expects.
	attempted, failed uint64
	spans             []span
}

func (r *phaseResult) set(name string, v float64, n int) {
	r.m[name] = v
	r.n[name] = n
}

func (r *phaseResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// probeCapFor sizes the probe buffers for a phase of the given length:
// twice the probe share of the offered rate, or in a closed loop of
// 3M installs/s in process and 750k/s through the pipeline, four times
// what the engine reached when this was written.
func probeCapFor(w *workload, total time.Duration) int {
	rate := w.feedRate
	switch {
	case rate > 0:
	case w.pipeline:
		rate = 750000
	default:
		rate = 3000000
	}
	share := 1.0 / probeEvery
	if w.zipfFeed {
		share = 0.2 // rank 0 is a probe and alone takes a tenth of Zipf(1.0) traffic
	}
	return int(float64(rate) * share * 2 * (total.Seconds() + 1))
}

// runPhase builds the engine, drives it through warm-up and the
// measured window, quiesces it, checks it and measures it.
func runPhase(w *workload, in *inputs, o phaseOpts) (*phaseResult, error) {
	res := &phaseResult{m: map[string]float64{}, n: map[string]int{}}
	total := o.warm + o.measure
	eo := engineOpts{policy: o.policy, outDir: o.outDir, load: o.load}
	if o.traced {
		eo.traceDepth = 1024
	}
	// Everything the benchmark itself keeps is allocated before the
	// heap baseline, so live_heap_mb is the engine's share.
	eo.probeBuf = make([]probeSample, 0, probeCapFor(w, total))
	if w.pipeline {
		eo.rprobeBuf = make([]probeSample, 0, cap(eo.probeBuf))
	}
	l := newLoad(w, in, o.traced, total, cap(eo.probeBuf))
	baseHeap := heapAlloc()

	var e *engine
	var setups []float64
	for i := 0; i < max(o.setups, 1); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
			e.removeWAL()
		}
		start := time.Now()
		var err error
		if e, err = buildEngine(w, in, eo); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.removeWAL()
	defer e.close()
	res.set("setup_s", median(setups), len(setups))
	// Taken here and not after the window: what the engine holds once
	// loaded repeats to a percent, while what it holds after a run has
	// grown with the deepest backlog a stall of the machine caused.
	res.set("live_heap_mb", liveMB(baseHeap), 1)

	l.e = e
	l.start()

	// Read the counters at every interval boundary of the window.
	nint := int(o.measure / o.interval)
	reads := make([]counters, 0, nint+1)
	var usage0, usage1 syscall.Rusage
	var mem0, mem1 runtime.MemStats
	for k := 0; k <= nint; k++ {
		time.Sleep(time.Until(l.t0.Add(o.warm + time.Duration(k)*o.interval)))
		c := counters{at: int64(time.Since(l.t0)), offered: l.offered.Load(), derived: e.derivedCalls.Load(), st: e.db.Stats()}
		if e.rdb != nil {
			c.rst = e.rdb.Stats()
		}
		reads = append(reads, c)
		if o.traced && (k == 0 || k == nint) {
			u, m := &usage0, &mem0
			if k == nint {
				u, m = &usage1, &mem1
			}
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, u); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(m)
		}
	}
	l.wait()

	quiesce(e, l, res)
	checkLedger(e, l, res)
	checkViews(e, l, res)
	if o.traced {
		measureLive(e, res, baseHeap)
	}
	if err := e.close(); err != nil {
		res.problem("close: %v", err)
	}
	// The engine is closed: its goroutines have exited and everything
	// they recorded may be read.
	checkProbes(e, res)
	if w.pipeline {
		checkRecovery(e, l, res)
	}

	recs, ok := l.records()
	if !ok {
		res.problem("transaction record space ran out")
	}
	res.attempted = l.offered.Load() - l.loaded + uint64(len(recs))
	res.failed = l.apiErrs.Load()

	iv := intervals{from: int64(o.warm), n: nint, width: int64(o.interval)}
	endToEndMetrics(w, e, l, res, iv, reads, recs)
	if o.traced {
		layerMetrics(w, e, l, res, iv, reads, recs)
		procMetrics(res, reads, &usage0, &usage1, &mem0, &mem1)
		res.spans = buildSpans(e, l, recs)
	}
	return res, nil
}

// heapAlloc returns the bytes of live heap objects. It collects twice
// first: what a sync.Pool held survives one collection as its victim
// cache and would count as live.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// liveMB is the live heap beyond base, in MB.
func liveMB(base uint64) float64 {
	return (float64(heapAlloc()) - float64(base)) / (1 << 20)
}

// lost counts updates the engine chose not to install: refused at the
// ingest buffer, pushed out of a full queue, or aged out of it.
// Superseded updates are not lost; a newer value took their place.
func lost(st strip.Stats) uint64 {
	return st.UpdatesDropped + st.UpdatesEvicted + st.UpdatesExpired
}

// arrived counts updates that reached their view or were superseded by
// a newer one that did.
func arrived(st strip.Stats) uint64 { return st.UpdatesInstalled + st.UpdatesSkipped }

// quiesce waits until everything offered has met its fate: nothing in
// the ingest buffer or the queue, and on the pipeline the replica
// level with the primary.
func quiesce(e *engine, l *load, res *phaseResult) {
	offered := l.offered.Load()
	err := waitFor(10*time.Second, func() bool {
		st := e.db.Stats()
		return settled(st) == offered && st.QueueLen == 0 && (e.rdb == nil || e.replicaLevel())
	})
	if err != nil {
		res.problem("engine did not quiesce within 10 s")
	}
}

// checkLedger balances the conservation ledger from Stats alone.
func checkLedger(e *engine, l *load, res *phaseResult) {
	st := e.db.Stats()
	if offered := l.offered.Load(); offered != st.UpdatesDropped+st.UpdatesReceived {
		res.problem("ledger: offered %d != dropped %d + received %d", offered, st.UpdatesDropped, st.UpdatesReceived)
	}
	if sum := st.UpdatesInstalled + st.UpdatesSkipped + st.UpdatesEvicted + st.UpdatesExpired + uint64(st.QueueLen); sum != st.UpdatesReceived {
		res.problem("ledger: received %d != installed %d + skipped %d + evicted %d + expired %d + queued %d",
			st.UpdatesReceived, st.UpdatesInstalled, st.UpdatesSkipped, st.UpdatesEvicted, st.UpdatesExpired, st.QueueLen)
	}
	if sum := st.TxnsCommitted + st.TxnsAbortedDeadline + st.TxnsAbortedStale + st.TxnsFailed; sum != st.TxnsSubmitted {
		res.problem("ledger: submitted %d != committed %d + aborted %d + %d + failed %d",
			st.TxnsSubmitted, st.TxnsCommitted, st.TxnsAbortedDeadline, st.TxnsAbortedStale, st.TxnsFailed)
	}
	if st.WALErrors != 0 || st.Degraded {
		res.problem("WAL errors %d, degraded %v", st.WALErrors, st.Degraded)
	}
}

// checkViews compares every view with what was offered for it. Ids
// rise per view, so no view may show an id newer than the last one
// offered; and when nothing was lost every view must show exactly that
// id, because an update is only ever superseded by a newer one. The
// closed loop must lose nothing. On the pipeline the replica's state
// must encode to the primary's bytes.
func checkViews(e *engine, l *load, res *phaseResult) {
	n := lost(e.db.Stats())
	if e.w.inflight > 0 && n > 0 {
		res.problem("closed loop lost %d updates", n)
	}
	bad := 0
	for v, name := range e.in.names {
		want := l.lastID[v]
		got, err := e.db.Peek(name)
		if id := uint64(got.Value); err != nil || id > want || (n == 0 && id != want) {
			bad++
		}
	}
	if bad > 0 {
		res.problem("%d views do not hold the last value offered (%d updates lost)", bad, n)
	}
	if e.rdb != nil {
		if p, r := stateOf(e.db), stateOf(e.rdb); p == "" || p != r {
			res.problem("replica state differs from the primary's")
		}
	}
}

// checkProbes reports probe hooks that saw generations go backwards or
// ran out of room.
func checkProbes(e *engine, res *phaseResult) {
	for _, p := range []*probeSink{&e.probes, &e.rprobes} {
		if p.nonMonotone > 0 {
			res.problem("%d probe installs went back in generation time", p.nonMonotone)
		}
		if p.overflow > 0 {
			res.problem("probe buffer overflowed by %d samples", p.overflow)
		}
	}
}

// checkRecovery re-opens the closed primary's WAL and requires every
// key the client synced to hold its last synced value.
func checkRecovery(e *engine, l *load, res *phaseResult) {
	start := time.Now()
	db, err := strip.Open(strip.Config{WALPath: filepath.Join(e.walDir, "wal")})
	if err != nil {
		res.problem("re-open of the WAL: %v", err)
		return
	}
	res.set("strip.wal.recover_ms", float64(time.Since(start))/1e6, 1)
	defer db.Close()
	bad := 0
	out := db.Exec(strip.TxnSpec{Func: func(tx *strip.Tx) error {
		for k, want := range l.synced {
			if want == 0 {
				continue
			}
			if got, ok := tx.Get(e.in.general[k]); !ok || got != want {
				bad++
			}
		}
		return nil
	}})
	if !out.Committed() || bad > 0 {
		res.problem("recovery: %d synced keys missing or stale (%v)", bad, out.Err)
	}
}

// measureLive takes a traced phase's measurements that need the
// quiesced engine still open.
func measureLive(e *engine, res *phaseResult, baseHeap uint64) {
	res.set("proc.live_heap_end_mb", liveMB(baseHeap), 1)
	var scrapes []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := e.db.Metrics().WriteText(io.Discard); err != nil {
			res.problem("scrape: %v", err)
		}
		scrapes = append(scrapes, float64(time.Since(start))/1e6)
	}
	res.set("obs.scrape_ms", median(scrapes), len(scrapes))

	start := time.Now()
	if stateOf(e.db) == "" {
		res.problem("snapshot did not encode")
	}
	res.set("repl.stream.snapshot_ms", float64(time.Since(start))/1e6, 1)

	if e.w.pipeline {
		st := e.db.Stats()
		if commits := st.TxnsCommitted; commits > 0 {
			res.set("strip.wal.bytes_per_commit", float64(dirSize(e.walDir))/float64(commits), int(commits))
		}
		start = time.Now()
		if err := e.db.Checkpoint(); err != nil {
			res.problem("checkpoint: %v", err)
		}
		res.set("strip.wal.checkpoint_ms", float64(time.Since(start))/1e6, 1)
	}
}

func dirSize(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, d := range entries {
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// rate is the median over intervals of delta(count)/delta(time).
func rate(reads []counters, count func(*counters) float64) (float64, int) {
	var per []float64
	for i := 1; i < len(reads); i++ {
		dt := float64(reads[i].at-reads[i-1].at) / 1e9
		per = append(per, (count(&reads[i])-count(&reads[i-1]))/dt)
	}
	return median(per), len(per)
}

// endToEndMetrics computes what a user of the engine sees. Staleness
// is observed at the last copy the workload maintains: the replica's
// views on the pipeline, the primary's elsewhere.
func endToEndMetrics(w *workload, e *engine, l *load, res *phaseResult, iv intervals, reads []counters, recs []txnRec) {
	v, n := rate(reads, func(c *counters) float64 { return float64(c.st.UpdatesInstalled) })
	res.set("installed_per_s", v, n)

	// Settled as installed or superseded, of what was offered in the
	// same second; the two counters are read a moment apart and a few
	// updates are in flight at each boundary, so a lossless second
	// reads within a fraction of a percent of 1, not exactly 1.
	var delivered []float64
	for i := 1; i < len(reads); i++ {
		if offered := reads[i].offered - reads[i-1].offered; offered > 0 {
			delivered = append(delivered, float64(arrived(reads[i].st)-arrived(reads[i-1].st))/float64(offered))
		}
	}
	res.set("delivered_frac", median(delivered), len(delivered))

	sink := &e.probes
	if w.pipeline {
		sink = &e.rprobes
	}
	ages := probeAges(sink, l, iv)
	v, n = intervalPercentile(ages, 0.50)
	res.set("staleness_p50_us", v/1e3, n)
	v, n = intervalPercentile(ages, 0.90)
	res.set("staleness_p90_us", v/1e3, n)
	v, n = intervalPercentile(ages, 0.99)
	res.set("staleness_p99_us", v/1e3, n)

	// Transactions are grouped by the interval they were due in.
	value := make([]float64, iv.n)
	due := make([]float64, iv.n)
	good := make([]float64, iv.n)
	for i := range recs {
		r := &recs[i]
		if k := iv.index(r.due); k >= 0 {
			due[k]++
			if r.success() {
				good[k]++
				value[k] += r.value
			}
		}
	}
	var frac []float64
	ndue := 0
	for k := range due {
		ndue += int(due[k])
		if due[k] > 0 {
			frac = append(frac, good[k]/due[k])
		}
	}
	res.set("value_per_s", median(value)/(float64(iv.width)/1e9), ndue)
	res.set("txn_success_frac", median(frac), ndue)

	// The issue's failed_frac, over the whole window: what was lost or
	// missed, of everything offered or due. Superseded updates are not
	// failures.
	first, last := &reads[0], &reads[len(reads)-1]
	missed := float64(ndue)
	for _, g := range good {
		missed -= g
	}
	if all := float64(last.offered-first.offered) + float64(ndue); all > 0 {
		res.set("failed_frac", (float64(lost(last.st)-lost(first.st))+missed)/all, int(all))
	}

	lat := bucket(iv, recs, func(r *txnRec) (int64, int64, bool) {
		return r.due, r.latency(), r.state == uint8(strip.Committed)
	})
	v, n = intervalPercentile(lat, 0.50)
	res.set("txn_latency_p50_us", v/1e3, n)
	v, n = intervalPercentile(lat, 0.90)
	res.set("txn_latency_p90_us", v/1e3, n)
	v, n = intervalPercentile(lat, 0.99)
	res.set("txn_latency_p99_us", v/1e3, n)
}

// probeAges buckets a sink's install ages by install time.
func probeAges(p *probeSink, l *load, iv intervals) [][]int64 {
	t0 := l.t0.UnixNano()
	return bucket(iv, p.samples, func(s *probeSample) (int64, int64, bool) {
		return s.at - t0, s.age, true
	})
}

// procMetrics charges the whole process's CPU, allocations and GC
// pauses over the window to the updates installed in it.
func procMetrics(res *phaseResult, reads []counters, u0, u1 *syscall.Rusage, m0, m1 *runtime.MemStats) {
	first, last := reads[0], reads[len(reads)-1]
	ops := float64(last.st.UpdatesInstalled - first.st.UpdatesInstalled)
	if ops == 0 {
		return
	}
	cpu := func(u *syscall.Rusage) float64 {
		return float64(u.Utime.Nano()+u.Stime.Nano()) / 1e9
	}
	res.set("proc.cpu_s_per_m_ops", (cpu(u1)-cpu(u0))/ops*1e6, int(ops))
	res.set("proc.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, int(ops))
	res.set("proc.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))
}
