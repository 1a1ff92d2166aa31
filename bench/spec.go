package main

import (
	"time"

	"repro/strip"
)

// workload is one fixed traffic mix. Every constant that shapes the
// load lives here; the seed only picks the keys, values and arrival
// counts (see inputs).
type workload struct {
	name string
	// bottleneck names the layers the workload keeps busy and the ones
	// it starves; every report prints it.
	bottleneck string

	policy strip.Policy
	maxAge time.Duration // 0 selects the UU criterion

	views int // base views; index == popularity rank
	high  int // the first `high` views are High importance
	// derived views, each the mean of derivedDeps base views.
	derived, derivedDeps int
	// Zipf(1.0) popularity of feed keys / of the views transactions
	// read; uniform otherwise.
	zipfFeed, zipfReads bool

	// Feed: closed loop when inflight is set (at most that many updates
	// offered and not yet settled), otherwise open loop, feedRate/1000
	// updates at every 1 ms tick.
	inflight int
	feedRate int
	// delayMean makes the feed arrive late and out of order: every
	// update was generated an exponentially distributed time (the
	// paper's network delay) before it is due to be offered.
	delayMean time.Duration
	// pipeline runs the deployed shape: feed lines over one TCP
	// connection into db.Serve, WAL on, one replica over loopback.
	pipeline bool

	// Transactions: txnRate per second in 1 ms bursts (Poisson counts
	// when poisson is set) handed to `submitters` parked goroutines. On
	// the pipeline a submitter calls Sync after every commit.
	txnRate    int
	poisson    bool
	submitters int
	reads      int
	// compute is spun inside the body and passed as Estimate:
	// exponential with this mean, capped at computeCap.
	computeMean, computeCap time.Duration
	// deadline = due + compute + U[slackMin, slackMax]; zero slackMax
	// means no deadline.
	slackMin, slackMax time.Duration
	// setOneIn of the transactions write `sets` general keys out of
	// generalKeys (0 = read only).
	setOneIn, sets, generalKeys int
	// policyReruns makes a traced run repeat the workload briefly under
	// the three policies it does not use.
	policyReruns bool
}

// scaled returns the workload with its open-loop rates multiplied by
// f. Only the smoke test scales (down, so the race detector's slowdown
// cannot turn a sustainable rate into an overload); scaled numbers are
// not comparable with anything.
func (w *workload) scaled(f float64) *workload {
	c := *w
	c.feedRate = int(float64(w.feedRate) * f)
	c.txnRate = int(float64(w.txnRate) * f)
	return &c
}

// A transaction's value is drawn from U[valueMin, valueMax], the
// paper's value distribution.
const valueMin, valueMax = 1.0, 10.0

// probeEvery makes every 16th view (by popularity rank) a probe view:
// its OnInstall hook is where staleness is observed from outside.
const probeEvery = 16

var workloads = []*workload{
	{
		name:       "feed_capacity",
		bottleneck: "ApplyUpdate -> ingest buffer -> GenQueue -> install at full speed with nothing lost; trigger, WAL, repl idle, txn almost",
		policy:     strip.OnDemand, views: 1000, inflight: window,
		txnRate: 1000, submitters: 32, reads: 2,
		slackMin: 2 * time.Millisecond, slackMax: 2 * time.Millisecond,
	},
	{
		name:       "feed_disorder",
		bottleneck: "the same feed path fed late and out of order: expiry at MaxAge and the worthiness check (supersede) shed what the input made stale; drop, evict, trigger, WAL, repl idle",
		policy:     strip.OnDemand, maxAge: 20 * time.Millisecond,
		views: 10000, zipfFeed: true, zipfReads: true, feedRate: 400000, delayMean: 10 * time.Millisecond,
		txnRate: 1000, submitters: 32, reads: 2,
	},
	{
		name:       "paper_mix",
		bottleneck: "scheduler goroutine: policy dispatch, value density, deadline aborts, Tx.Read + OD TakeFor, triggers/derived; feed path a minor share; WAL, repl idle",
		policy:     strip.OnDemand, maxAge: 50 * time.Millisecond,
		views: 1000, high: 250, derived: 20, derivedDeps: 8, feedRate: 300000,
		txnRate: 15000, poisson: true, submitters: 256, reads: 4, zipfReads: true,
		computeMean: 20 * time.Microsecond, computeCap: 200 * time.Microsecond,
		slackMin: time.Millisecond, slackMax: 5 * time.Millisecond,
		setOneIn: 10, sets: 1, generalKeys: 1000, policyReruns: true,
	},
	{
		name:       "stripd_pipeline",
		bottleneck: "line decode, WAL append+fsync, frame encode, ring, socket, frame decode, replica apply at a sustainable rate; queues short",
		policy:     strip.UpdatesFirst, views: 1000, feedRate: 25000, pipeline: true,
		txnRate: 1000, submitters: 1, reads: 2,
		slackMin: time.Millisecond, slackMax: time.Millisecond,
		setOneIn: 1, sets: 2, generalKeys: 10000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one reported number. The two tables below are the
// program's side of BENCHMARK.json; the smoke test holds them equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"installed_per_s", "1/s"},
	{"delivered_frac", "frac"},
	{"value_per_s", "1/s"},
	{"txn_success_frac", "frac"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"gen.offered_per_s", "1/s"},
	{"gen.lateness_p99_us", "us"},
	{"strip.ingest.apply_update_ns", "ns"},
	{"strip.ingest.dropped", "count"},
	{"strip.ingest.drop_frac", "frac"},
	{"strip.ingest.parse_line_ns", "ns"},
	{"uqueue.insert_pop_ns", "ns"},
	{"uqueue.take_for_ns", "ns"},
	{"uqueue.len_mean", "count"},
	{"uqueue.evicted", "count"},
	{"uqueue.expired", "count"},
	{"uqueue.skipped", "count"},
	{"uqueue.useful_frac", "frac"},
	{"strip.loop.queue_to_install_p50_us", "us"},
	{"strip.loop.queue_to_install_p99_us", "us"},
	{"strip.loop.installed", "count"},
	{"strip.loop.install_ns", "ns"},
	{"strip.loop.queue_wait_us", "us"},
	{"strip.loop.view_lag_p50_us", "us"},
	{"strip.loop.view_lag_p99_us", "us"},
	{"strip.loop.policy_UF.txn_success_frac", "frac"},
	{"strip.loop.policy_TF.txn_success_frac", "frac"},
	{"strip.loop.policy_SU.txn_success_frac", "frac"},
	{"strip.loop.policy_UF.staleness_p50_us", "us"},
	{"strip.loop.policy_TF.staleness_p50_us", "us"},
	{"strip.loop.policy_SU.staleness_p50_us", "us"},
	{"strip.txn.wait_p50_us", "us"},
	{"strip.txn.read_ns", "ns"},
	{"strip.txn.exec_overhead_us", "us"},
	{"strip.txn.committed", "count"},
	{"strip.txn.committed_stale", "count"},
	{"strip.txn.aborted_deadline", "count"},
	{"strip.txn.aborted_stale", "count"},
	{"strip.txn.refused", "count"},
	{"strip.trigger.fire_us", "us"},
	{"strip.trigger.derived_recomputes", "count"},
	{"strip.wal.commit_us", "us"},
	{"strip.wal.sync_p50_us", "us"},
	{"strip.wal.sync_p99_us", "us"},
	{"strip.wal.bytes_per_commit", "B"},
	{"strip.wal.checkpoint_ms", "ms"},
	{"strip.wal.recover_ms", "ms"},
	{"repl.frame.encode_ns", "ns"},
	{"repl.frame.decode_ns", "ns"},
	{"repl.frame.bytes_per_update", "B"},
	{"repl.stream.primary_to_replica_p50_us", "us"},
	{"repl.stream.primary_to_replica_p99_us", "us"},
	{"repl.stream.seq_lag_max", "count"},
	{"repl.stream.replica_installed", "count"},
	{"repl.stream.snapshot_ms", "ms"},
	{"obs.scrape_ms", "ms"},
	{"obs.trace_overhead_frac", "frac"},
	{"proc.cpu_s_per_m_ops", "s"},
	{"proc.mallocs_per_op", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.live_heap_end_mb", "MB"},
	// End-to-end names of the issue kept as layer metrics: the
	// workload-specific ones, because the driver's contract wants every
	// end-to-end metric on every workload and never zero, and the tails
	// and transaction latency, because they did not repeat from run to
	// run (see README.md).
	{"failed_frac", "frac"},
	{"staleness_p50_us", "us"},
	{"staleness_p90_us", "us"},
	{"staleness_p99_us", "us"},
	{"txn_latency_p50_us", "us"},
	{"txn_latency_p90_us", "us"},
	{"txn_latency_p99_us", "us"},
	{"primary_staleness_p50_us", "us"},
	{"primary_staleness_p99_us", "us"},
	{"replica_staleness_p50_us", "us"},
	{"replica_staleness_p99_us", "us"},
	{"durable_commit_p50_us", "us"},
	{"durable_commit_p99_us", "us"},
	{"durable_txn_per_s", "1/s"},
}
