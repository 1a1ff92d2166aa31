package main

import (
	"time"

	"repro/internal/model"
	"repro/internal/uqueue"
	"repro/strip"
	"repro/strip/repl"
)

// layerMetrics computes the per-layer numbers of a traced phase: work
// done, time busy and time waited at each module boundary the
// benchmark can see, plus the means the program reports about itself.
func layerMetrics(w *workload, e *engine, l *load, res *phaseResult, iv intervals, reads []counters, recs []txnRec) {
	first, last := &reads[0], &reads[len(reads)-1]
	delta := func(f func(*strip.Stats) uint64) float64 { return float64(f(&last.st) - f(&first.st)) }
	offered := float64(last.offered - first.offered)
	t0 := l.t0.UnixNano()

	// gen
	v, n := rate(reads, func(c *counters) float64 { return float64(c.offered) })
	res.set("gen.offered_per_s", v, n)
	// Ticks carry no timestamp of their own: tick i was due at i ms.
	late := bucketIndexed(iv, l.lateness, int64(time.Millisecond))
	v, n = intervalPercentile(late, 0.99)
	res.set("gen.lateness_p99_us", v/1e3, n)

	// strip.ingest
	var applyNs []int64
	for i := range l.offers {
		if o := &l.offers[i]; iv.index(o.start) >= 0 && !w.pipeline {
			applyNs = append(applyNs, o.end-o.start)
		}
	}
	res.set("strip.ingest.apply_update_ns", mean(applyNs), len(applyNs))
	dropped := delta(func(s *strip.Stats) uint64 { return s.UpdatesDropped })
	res.set("strip.ingest.dropped", dropped, int(offered))
	if offered > 0 {
		res.set("strip.ingest.drop_frac", dropped/offered, int(offered))
	}

	// uqueue
	received := delta(func(s *strip.Stats) uint64 { return s.UpdatesReceived })
	installed := delta(func(s *strip.Stats) uint64 { return s.UpdatesInstalled })
	res.set("uqueue.evicted", delta(func(s *strip.Stats) uint64 { return s.UpdatesEvicted }), int(received))
	res.set("uqueue.expired", delta(func(s *strip.Stats) uint64 { return s.UpdatesExpired }), int(received))
	res.set("uqueue.skipped", delta(func(s *strip.Stats) uint64 { return s.UpdatesSkipped }), int(received))
	if received > 0 {
		res.set("uqueue.useful_frac", installed/received, int(received))
	}
	lens := bucketIndexed(iv, l.queueLens, int64(10*time.Millisecond))
	var allLens []int64
	for _, b := range lens {
		allLens = append(allLens, b...)
	}
	lenMean := mean(allLens)
	res.set("uqueue.len_mean", lenMean, len(allLens))

	// strip.loop
	offerEnd := make(map[uint64]int64, len(l.offers))
	for i := range l.offers {
		offerEnd[l.offers[i].id] = l.offers[i].end
	}
	q2i := bucket(iv, e.probes.samples, func(s *probeSample) (int64, int64, bool) {
		end, ok := offerEnd[s.id]
		return s.at - t0, s.at - t0 - end, ok
	})
	v, n = intervalPercentile(q2i, 0.50)
	res.set("strip.loop.queue_to_install_p50_us", v/1e3, n)
	v, n = intervalPercentile(q2i, 0.99)
	res.set("strip.loop.queue_to_install_p99_us", v/1e3, n)
	res.set("strip.loop.installed", installed, int(installed))
	setHistMean(e, res, "strip.loop.install_ns", "strip_pipeline_install_seconds", 1e9)
	setHistMean(e, res, "strip.loop.queue_wait_us", "strip_pipeline_queue_wait_seconds", 1e6)
	lag := bucketIndexed(iv, l.viewLag, int64(time.Millisecond)/2)
	v, n = intervalPercentile(lag, 0.50)
	res.set("strip.loop.view_lag_p50_us", v/1e3, n)
	v, n = intervalPercentile(lag, 0.99)
	res.set("strip.loop.view_lag_p99_us", v/1e3, n)

	// strip.txn
	ran := func(r *txnRec) bool { return r.wait != 0 }
	wait := bucket(iv, recs, func(r *txnRec) (int64, int64, bool) { return r.due, r.wait, ran(r) })
	v, n = intervalPercentile(wait, 0.50)
	res.set("strip.txn.wait_p50_us", v/1e3, n)
	var readNs, overNs []int64
	refused, due := 0, 0
	for i := range recs {
		r := &recs[i]
		if iv.index(r.due) < 0 {
			continue
		}
		due++
		if r.state == stRefused {
			refused++
		}
		if ran(r) {
			readNs = append(readNs, r.read/int64(w.reads))
			overNs = append(overNs, r.overhead())
		}
	}
	res.set("strip.txn.read_ns", mean(readNs), len(readNs)*w.reads)
	res.set("strip.txn.exec_overhead_us", mean(overNs)/1e3, len(overNs))
	res.set("strip.txn.committed", delta(func(s *strip.Stats) uint64 { return s.TxnsCommitted }), due)
	res.set("strip.txn.committed_stale", delta(func(s *strip.Stats) uint64 { return s.TxnsCommittedStale }), due)
	res.set("strip.txn.aborted_deadline", delta(func(s *strip.Stats) uint64 { return s.TxnsAbortedDeadline }), due)
	res.set("strip.txn.aborted_stale", delta(func(s *strip.Stats) uint64 { return s.TxnsAbortedStale }), due)
	res.set("strip.txn.refused", float64(refused), due)

	// strip.trigger
	setHistMean(e, res, "strip.trigger.fire_us", "strip_pipeline_trigger_seconds", 1e6)
	res.set("strip.trigger.derived_recomputes", float64(last.derived-first.derived), int(installed))

	// strip.wal
	setHistMean(e, res, "strip.wal.commit_us", "strip_pipeline_wal_append_seconds", 1e6)
	syncs := bucket(iv, recs, func(r *txnRec) (int64, int64, bool) { return r.due, r.sync, r.sync > 0 })
	v, n = intervalPercentile(syncs, 0.50)
	res.set("strip.wal.sync_p50_us", v/1e3, n)
	v, n = intervalPercentile(syncs, 0.99)
	res.set("strip.wal.sync_p99_us", v/1e3, n)

	// repl.stream
	if w.pipeline {
		primaryAt := make(map[uint64]int64, len(e.probes.samples))
		for i := range e.probes.samples {
			primaryAt[e.probes.samples[i].id] = e.probes.samples[i].at
		}
		p2r := bucket(iv, e.rprobes.samples, func(s *probeSample) (int64, int64, bool) {
			at, ok := primaryAt[s.id]
			return s.at - t0, s.at - at, ok
		})
		v, n = intervalPercentile(p2r, 0.50)
		res.set("repl.stream.primary_to_replica_p50_us", v/1e3, n)
		v, n = intervalPercentile(p2r, 0.99)
		res.set("repl.stream.primary_to_replica_p99_us", v/1e3, n)
		res.set("repl.stream.seq_lag_max", float64(l.seqLagMax), len(l.viewLag)/2)
		res.set("repl.stream.replica_installed", float64(last.rst.UpdatesInstalled-first.rst.UpdatesInstalled), int(installed))
	}

	// The issue's workload-specific end-to-end names.
	ages := probeAges(&e.probes, l, iv)
	v, n = intervalPercentile(ages, 0.50)
	res.set("primary_staleness_p50_us", v/1e3, n)
	v, n = intervalPercentile(ages, 0.99)
	res.set("primary_staleness_p99_us", v/1e3, n)
	if w.pipeline {
		res.set("replica_staleness_p50_us", res.m["staleness_p50_us"], res.n["staleness_p50_us"])
		res.set("replica_staleness_p99_us", res.m["staleness_p99_us"], res.n["staleness_p99_us"])
		res.set("durable_commit_p50_us", res.m["txn_latency_p50_us"], res.n["txn_latency_p50_us"])
		res.set("durable_commit_p99_us", res.m["txn_latency_p99_us"], res.n["txn_latency_p99_us"])
		v, n = rate(reads, func(c *counters) float64 { return float64(c.st.TxnsCommitted) })
		res.set("durable_txn_per_s", v, n)
	}

	isolatedMetrics(w, l.in, res, int(lenMean))
}

// bucketIndexed buckets samples taken on a fixed schedule: sample i was
// taken step ns after sample i-1, the first at the phase start.
func bucketIndexed[T int | int64](iv intervals, samples []T, step int64) [][]int64 {
	type stamped struct{ t, v int64 }
	s := make([]stamped, len(samples))
	for i, v := range samples {
		s[i] = stamped{int64(i) * step, int64(v)}
	}
	return bucket(iv, s, func(x *stamped) (int64, int64, bool) { return x.t, x.v, true })
}

// setHistMean reports the mean of one of the program's own latency
// histograms (sum/count over the engine's life), scaled from seconds.
func setHistMean(e *engine, res *phaseResult, metric, series string, scale float64) {
	h, ok := e.reg.HistogramFor(series)
	if !ok {
		res.problem("series %s is not registered", series)
		return
	}
	if c := h.Count(); c > 0 {
		res.set(metric, h.Sum()/float64(c)*scale, int(c))
	}
}

// isolatedOps is how many operations each isolated replay times.
const isolatedOps = 200000

// isolatedMetrics replays the workload's own keys through single
// layers outside the engine: the feed line parser, the update queue at
// the length the run sampled, and the replication frame codec.
func isolatedMetrics(w *workload, in *inputs, res *phaseResult, queueLen int) {
	now := time.Now()
	update := func(i int) strip.Update {
		return strip.Update{Object: in.names[in.keys[i&(keySeqLen-1)]], Value: float64(i + 1), Generated: now.Add(time.Duration(i))}
	}

	lines := make([]string, 4096)
	for i := range lines {
		lines[i] = strip.FormatUpdateLine(update(i))
	}
	start := time.Now()
	for i := 0; i < isolatedOps; i++ {
		if _, err := strip.ParseUpdateLine(lines[i&4095]); err != nil {
			res.problem("ParseUpdateLine: %v", err)
			return
		}
	}
	res.set("strip.ingest.parse_line_ns", float64(time.Since(start))/isolatedOps, isolatedOps)

	// GenQueue as the engine configures it (default capacity), held at
	// the sampled mean length by pairing every insert with a pop.
	q := uqueue.NewGenQueue(8192, 1)
	seq := 0
	mk := func() *model.Update {
		seq++
		return &model.Update{Seq: uint64(seq), Object: model.ObjectID(in.keys[seq&(keySeqLen-1)]), GenTime: float64(seq) * 1e-6}
	}
	for i := 0; i < queueLen; i++ {
		q.Insert(mk())
	}
	ups := make([]*model.Update, isolatedOps)
	for i := range ups {
		ups[i] = mk()
	}
	start = time.Now()
	for _, u := range ups {
		q.Insert(u)
		q.PopOldest()
	}
	res.set("uqueue.insert_pop_ns", float64(time.Since(start))/isolatedOps, isolatedOps)

	// TakeFor in timed blocks; what a block removed is put back untimed.
	const block = 256
	var took time.Duration
	takes, ki := 0, 0
	for takes < isolatedOps/4 {
		var removed []*model.Update
		start = time.Now()
		for i := 0; i < block; i++ {
			newest, superseded := q.TakeFor(model.ObjectID(in.keys[ki&(keySeqLen-1)]))
			ki++
			if newest != nil {
				removed = append(append(removed, newest), superseded...)
			}
		}
		took += time.Since(start)
		takes += block
		for _, u := range removed {
			q.Insert(u)
		}
	}
	res.set("uqueue.take_for_ns", float64(took)/float64(takes), takes)

	ev := strip.ReplEvent{Seq: 1, Kind: strip.ReplUpdate}
	var payload []byte
	start = time.Now()
	for i := 0; i < isolatedOps; i++ {
		u := update(i)
		ev.Object, ev.Value, ev.Generated = u.Object, u.Value, u.Generated
		var err error
		if payload, err = repl.EncodeEvent(ev); err != nil {
			res.problem("EncodeEvent: %v", err)
			return
		}
	}
	res.set("repl.frame.encode_ns", float64(time.Since(start))/isolatedOps, isolatedOps)
	start = time.Now()
	for i := 0; i < isolatedOps; i++ {
		if _, err := repl.Decode(payload); err != nil {
			res.problem("Decode: %v", err)
			return
		}
	}
	res.set("repl.frame.decode_ns", float64(time.Since(start))/isolatedOps, isolatedOps)
	if frame, err := repl.AppendFrame(nil, payload); err == nil {
		res.set("repl.frame.bytes_per_update", float64(len(frame)), 1)
	}
}
