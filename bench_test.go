// Package repro's benchmark harness regenerates every table and
// figure of the paper's evaluation (§6) and benchmarks the building
// blocks.
//
// Figure benches: each BenchmarkFigureNN iteration runs that figure's
// full parameter sweep (all four algorithms at every sweep point) at a
// reduced horizon, and reports a headline metric from the sweep via
// b.ReportMetric so the paper's qualitative result is visible straight
// from the benchmark output. For publication-scale numbers run
//
//	go run ./cmd/stripexp -all -duration 1000 -seeds 3
//
// Micro benches cover the simulator's hot paths: the event kernel, the
// generation-ordered update queue, and whole simulation runs per
// policy (reported as simulated-seconds-per-wall-second).
//
// The live engine's throughput and latency are not measured here: an
// open-loop offer-rate loop counts ApplyUpdate returns, not installs.
// Their ground is bench/ (see bench/README.md: feed_capacity for the
// ingest path, stripd_pipeline for replication).
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/uqueue"
	"repro/strip"
	"repro/strip/repl"
)

// benchOpts is the reduced horizon used by the figure benches.
var benchOpts = experiment.Options{Duration: 20, Seeds: []uint64{1}}

// runFigure executes one figure sweep per iteration and reports the
// named headline metric (averaged over the sweep for one policy).
func runFigure(b *testing.B, id, policy, metric string) {
	b.Helper()
	b.ReportAllocs()
	def, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		tab, err := def.Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		series := tab.Series(policy, metric)
		if len(series) == 0 {
			b.Fatalf("no series for %s/%s", policy, metric)
		}
		sum := 0.0
		for _, v := range series {
			sum += v
		}
		last = sum / float64(len(series))
	}
	b.ReportMetric(last, policy+":"+metric)
}

func BenchmarkFigure03(b *testing.B)  { runFigure(b, "fig3", "UF", "rho_u") }
func BenchmarkFigure04(b *testing.B)  { runFigure(b, "fig4", "TF", "AV") }
func BenchmarkFigure05(b *testing.B)  { runFigure(b, "fig5", "UF", "fold_l") }
func BenchmarkFigure06(b *testing.B)  { runFigure(b, "fig6", "OD", "psuccess") }
func BenchmarkFigure07a(b *testing.B) { runFigure(b, "fig7a", "UF", "AV") }
func BenchmarkFigure07b(b *testing.B) { runFigure(b, "fig7b", "OD", "AV") }
func BenchmarkFigure08(b *testing.B)  { runFigure(b, "fig8", "OD", "AV") }
func BenchmarkFigure09(b *testing.B)  { runFigure(b, "fig9", "OD", "psuccess") }
func BenchmarkFigure10a(b *testing.B) { runFigure(b, "fig10a", "OD", "AV") }
func BenchmarkFigure10b(b *testing.B) { runFigure(b, "fig10b", "OD", "AV") }
func BenchmarkFigure11(b *testing.B)  { runFigure(b, "fig11", "TF", "fold_l") }
func BenchmarkFigure12a(b *testing.B) { runFigure(b, "fig12a", "TF", "fold_h") }
func BenchmarkFigure12b(b *testing.B) { runFigure(b, "fig12b", "TF", "fold_h") }
func BenchmarkFigure13a(b *testing.B) { runFigure(b, "fig13a", "OD", "AV") }
func BenchmarkFigure13b(b *testing.B) { runFigure(b, "fig13b", "TF", "AV") }
func BenchmarkFigure14(b *testing.B)  { runFigure(b, "fig14", "OD", "psuccess") }
func BenchmarkFigure15(b *testing.B)  { runFigure(b, "fig15", "TF", "AV") }
func BenchmarkFigure16(b *testing.B)  { runFigure(b, "fig16", "OD", "psuccess") }

// Ablation benches for the implemented future-work features.

func BenchmarkAblationCoalescedQueue(b *testing.B) {
	for _, coalesce := range []bool{false, true} {
		name := "baseline-queue"
		if coalesce {
			name = "coalesced-queue"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				p := model.DefaultParams()
				p.TxnRate = 15
				p.CoalesceQueue = coalesce
				r := sched.MustRun(sched.Config{Params: p, Policy: sched.OD, Seed: 1, Duration: 20})
				last = r.PSuccess
			}
			b.ReportMetric(last, "psuccess")
		})
	}
}

func BenchmarkAblationPartitionedQueues(b *testing.B) {
	for _, part := range []bool{false, true} {
		name := "merged-queue"
		if part {
			name = "partitioned-queue"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				p := model.DefaultParams()
				p.TxnRate = 15
				p.PartitionedQueues = part
				r := sched.MustRun(sched.Config{Params: p, Policy: sched.TF, Seed: 1, Duration: 20})
				last = r.FOldHigh
			}
			b.ReportMetric(last, "fold_h")
		})
	}
}

func BenchmarkAblationFixedFraction(b *testing.B) {
	for _, frac := range []float64{0.1, 0.2, 0.3} {
		b.Run(fmt.Sprintf("fraction-%.1f", frac), func(b *testing.B) {
			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				p := model.DefaultParams()
				p.TxnRate = 15
				p.UpdateCPUFraction = frac
				r := sched.MustRun(sched.Config{Params: p, Policy: sched.FC, Seed: 1, Duration: 20})
				last = r.PSuccess
			}
			b.ReportMetric(last, "psuccess")
		})
	}
}

// Whole-run throughput per policy: how many simulated seconds of the
// baseline workload one wall-clock second buys.

func BenchmarkSimulationRun(b *testing.B) {
	for _, pol := range sched.AllPolicies {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			const horizon = 10.0
			for i := 0; i < b.N; i++ {
				p := model.DefaultParams()
				sched.MustRun(sched.Config{Params: p, Policy: pol, Seed: uint64(i + 1), Duration: horizon})
			}
			b.ReportMetric(horizon*float64(b.N)/b.Elapsed().Seconds(), "sim-s/wall-s")
		})
	}
}

// Micro benches: the simulator's hot data structures.

func BenchmarkEventKernel(b *testing.B) {
	s := sim.New()
	count := 0
	var tick func()
	tick = func() {
		count++
		s.After(1, tick)
	}
	s.After(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(float64(b.N))
	if count < b.N-1 {
		b.Fatalf("ran %d events, want about %d", count, b.N)
	}
}

func BenchmarkGenQueueInsertPop(b *testing.B) {
	q := uqueue.NewGenQueue(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Insert(&model.Update{Seq: uint64(i), Object: model.ObjectID(i % 1000), GenTime: float64(i % 977)})
		if q.Len() > 5600 {
			q.PopOldest()
		}
	}
}

func BenchmarkGenQueueTakeFor(b *testing.B) {
	q := uqueue.NewGenQueue(0, 1)
	for i := 0; i < 5600; i++ {
		q.Insert(&model.Update{Seq: uint64(i), Object: model.ObjectID(i % 1000), GenTime: float64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := model.ObjectID(i % 1000)
		newest, superseded := q.TakeFor(obj)
		if newest != nil {
			// Put them back so the queue stays populated.
			for j := 0; j <= len(superseded); j++ {
				q.Insert(&model.Update{Seq: newest.Seq, Object: obj, GenTime: newest.GenTime})
			}
		}
	}
}

func BenchmarkCoalescedQueueInsert(b *testing.B) {
	q := uqueue.NewCoalescedQueue(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Insert(&model.Update{Seq: uint64(i), Object: model.ObjectID(i % 1000), GenTime: float64(i)})
	}
}

func BenchmarkAblationDiskResident(b *testing.B) {
	for _, pages := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("pages-%d", pages), func(b *testing.B) {
			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				p := model.DefaultParams()
				p.DiskResident = true
				p.IOSeconds = 0.01
				p.UpdateRate = 40
				p.TxnRate = 2
				p.BufferPoolPages = pages
				r := sched.MustRun(sched.Config{Params: p, Policy: sched.TF, Seed: 1, Duration: 20})
				last = r.BufferHitRatio
			}
			b.ReportMetric(last, "hit-ratio")
		})
	}
}

func BenchmarkAblationBurstyStream(b *testing.B) {
	for _, factor := range []float64{1, 4, 8} {
		b.Run(fmt.Sprintf("burst-%.0fx", factor), func(b *testing.B) {
			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				p := model.DefaultParams()
				p.TxnRate = 8
				p.BurstFactor = factor
				r := sched.MustRun(sched.Config{Params: p, Policy: sched.TF, Seed: 1, Duration: 20})
				last = r.FOldLow
			}
			b.ReportMetric(last, "fold_l")
		})
	}
}

// Wall-clock library benchmarks.

func BenchmarkStripExec(b *testing.B) {
	db, err := strip.Open(strip.Config{Policy: strip.OnDemand})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineView("px", strip.High); err != nil {
		b.Fatal(err)
	}
	db.ApplyUpdate(strip.Update{Object: "px", Value: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := db.Exec(strip.TxnSpec{
			Value:    1,
			Deadline: time.Now().Add(time.Second),
			Func: func(tx *strip.Tx) error {
				_, err := tx.Read("px")
				return err
			},
		})
		if !res.Committed() {
			b.Fatalf("txn failed: %+v", res)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txns/s")
}

func BenchmarkStripQuery(b *testing.B) {
	db, err := strip.Open(strip.Config{Policy: strip.UpdatesFirst})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("v%03d", i)
		db.DefineView(name, strip.Low)
		db.ApplyUpdate(strip.Update{Object: name, Value: float64(i)})
	}
	time.Sleep(50 * time.Millisecond) // let installs drain
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Query("SELECT * FROM views WHERE value > 500 ORDER BY value DESC LIMIT 10")
		if err != nil || len(rows) != 10 {
			b.Fatalf("query: %v (%d rows)", err, len(rows))
		}
	}
}

// BenchmarkReplFrameEncode measures the replication codec's encode
// path on a representative record-view update.
func BenchmarkReplFrameEncode(b *testing.B) {
	ev := strip.ReplEvent{
		Seq: 1, Kind: strip.ReplUpdate, Object: "DEM/USD.LON",
		Importance: strip.High, Value: 1.6612,
		Generated: time.Unix(0, 1700000000000000001),
		Fields: []strip.KeyValue{
			{Key: "ask", Value: 1.6624}, {Key: "bid", Value: 1.66},
			{Key: "volume", Value: 1e6},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Seq = uint64(i + 1)
		if _, err := repl.EncodeEvent(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkReplFrameDecode measures the decode path, CRC included.
func BenchmarkReplFrameDecode(b *testing.B) {
	payload, err := repl.EncodeEvent(strip.ReplEvent{
		Seq: 1, Kind: strip.ReplUpdate, Object: "DEM/USD.LON",
		Importance: strip.High, Value: 1.6612,
		Generated: time.Unix(0, 1700000000000000001),
		Fields: []strip.KeyValue{
			{Key: "ask", Value: 1.6624}, {Key: "bid", Value: 1.66},
			{Key: "volume", Value: 1e6},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repl.Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}
