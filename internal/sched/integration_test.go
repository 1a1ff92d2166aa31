package sched

// Integration tests: full simulation runs asserting the qualitative
// findings of the paper's evaluation (§6). Horizons are shorter than
// the paper's 1000 s to keep the suite fast; the shapes are stable
// well before that.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestUtilizationSumsToAtMostOne(t *testing.T) {
	for _, pol := range Policies {
		p := model.DefaultParams()
		p.TxnRate = 25
		r := MustRun(Config{Params: p, Policy: pol, Seed: 7, Duration: 60})
		total := r.RhoTxn + r.RhoUpdate
		if total > 1.0+1e-6 {
			t.Errorf("%v: total utilization %v > 1", pol, total)
		}
		if total < 0.95 {
			t.Errorf("%v: total utilization %v, CPU should saturate at lambda_t=25", pol, total)
		}
	}
}

func TestFig3UpdateUtilization(t *testing.T) {
	// UF's rho_u is flat at about lambda_u*(install)/ips = 0.192
	// regardless of load; TF's collapses under transaction pressure.
	p := model.DefaultParams()
	p.TxnRate = 20
	uf := MustRun(Config{Params: p, Policy: UF, Seed: 7, Duration: 60})
	tf := MustRun(Config{Params: p, Policy: TF, Seed: 7, Duration: 60})
	if math.Abs(uf.RhoUpdate-0.192) > 0.02 {
		t.Errorf("UF rho_u = %v, want about 0.192", uf.RhoUpdate)
	}
	if tf.RhoUpdate > 0.05 {
		t.Errorf("TF rho_u = %v under overload, want near zero", tf.RhoUpdate)
	}

	// At light load all algorithms keep up with the full stream.
	p.TxnRate = 1
	for _, pol := range Policies {
		r := MustRun(Config{Params: p, Policy: pol, Seed: 7, Duration: 60})
		if math.Abs(r.RhoUpdate-0.192) > 0.02 {
			t.Errorf("%v rho_u = %v at light load, want about 0.192", pol, r.RhoUpdate)
		}
	}
}

func TestFig4DeadlinesAndValue(t *testing.T) {
	p := model.DefaultParams()
	p.TxnRate = 15
	res := map[Policy]struct{ pmd, av float64 }{}
	for _, pol := range Policies {
		r := MustRun(Config{Params: p, Policy: pol, Seed: 9, Duration: 100})
		res[pol] = struct{ pmd, av float64 }{r.PMissedDeadline, r.AvgValuePerSecond}
	}
	// TF and OD favor transactions: fewer missed deadlines and more
	// value than UF and SU.
	for _, txnFirst := range []Policy{TF, OD} {
		for _, updFirst := range []Policy{UF, SU} {
			if res[txnFirst].pmd >= res[updFirst].pmd {
				t.Errorf("pMD(%v)=%v should be below pMD(%v)=%v",
					txnFirst, res[txnFirst].pmd, updFirst, res[updFirst].pmd)
			}
			if res[txnFirst].av <= res[updFirst].av {
				t.Errorf("AV(%v)=%v should exceed AV(%v)=%v",
					txnFirst, res[txnFirst].av, updFirst, res[updFirst].av)
			}
		}
	}
}

func TestFig4ValueGrowsPastSaturation(t *testing.T) {
	// Even though more deadlines are missed, higher load returns more
	// value: the scheduler picks the most valuable opportunities.
	prev := 0.0
	for _, rate := range []float64{10, 15, 20, 25} {
		p := model.DefaultParams()
		p.TxnRate = rate
		r := MustRun(Config{Params: p, Policy: TF, Seed: 5, Duration: 100})
		if r.AvgValuePerSecond <= prev {
			t.Fatalf("AV at lambda_t=%v is %v, not above %v", rate, r.AvgValuePerSecond, prev)
		}
		prev = r.AvgValuePerSecond
	}
}

func TestFig5Staleness(t *testing.T) {
	p := model.DefaultParams()
	p.TxnRate = 20
	uf := MustRun(Config{Params: p, Policy: UF, Seed: 3, Duration: 100})
	tf := MustRun(Config{Params: p, Policy: TF, Seed: 3, Duration: 100})
	su := MustRun(Config{Params: p, Policy: SU, Seed: 3, Duration: 100})
	od := MustRun(Config{Params: p, Policy: OD, Seed: 3, Duration: 100})

	// UF keeps staleness below ~10% at any load.
	if uf.FOldLow > 0.10 || uf.FOldHigh > 0.10 {
		t.Errorf("UF fold = %v/%v, want under 0.10", uf.FOldLow, uf.FOldHigh)
	}
	// TF lets most data go stale under overload.
	if tf.FOldLow < 0.7 || tf.FOldHigh < 0.7 {
		t.Errorf("TF fold = %v/%v, want mostly stale", tf.FOldLow, tf.FOldHigh)
	}
	// SU protects the high partition only.
	if su.FOldHigh > 0.10 {
		t.Errorf("SU fold_h = %v, want fresh high partition", su.FOldHigh)
	}
	if su.FOldLow < 0.5 {
		t.Errorf("SU fold_l = %v, want stale low partition", su.FOldLow)
	}
	// OD is slightly fresher than TF (on-demand refreshes help).
	if od.FOldHigh >= tf.FOldHigh {
		t.Errorf("OD fold_h = %v should be below TF's %v", od.FOldHigh, tf.FOldHigh)
	}
}

func TestFig6SuccessRanking(t *testing.T) {
	// psuccess ranking at the baseline: OD > UF > SU > TF.
	p := model.DefaultParams()
	var got [4]float64
	for i, pol := range []Policy{OD, UF, SU, TF} {
		r := MustRun(Config{Params: p, Policy: pol, Seed: 21, Duration: 100})
		got[i] = r.PSuccess
	}
	for i := 0; i+1 < len(got); i++ {
		if got[i] <= got[i+1] {
			t.Fatalf("psuccess ranking broken: OD,UF,SU,TF = %v", got)
		}
	}
}

func TestFig6NonTardyFreshness(t *testing.T) {
	// OD and UF: transactions that meet deadlines almost always read
	// fresh data; TF: most non-tardy transactions read stale data.
	p := model.DefaultParams()
	od := MustRun(Config{Params: p, Policy: OD, Seed: 2, Duration: 100})
	uf := MustRun(Config{Params: p, Policy: UF, Seed: 2, Duration: 100})
	tf := MustRun(Config{Params: p, Policy: TF, Seed: 2, Duration: 100})
	if od.PSuccessGivenNonTardy < 0.7 || uf.PSuccessGivenNonTardy < 0.7 {
		t.Errorf("OD/UF psuc|nontardy = %v/%v, want high",
			od.PSuccessGivenNonTardy, uf.PSuccessGivenNonTardy)
	}
	if tf.PSuccessGivenNonTardy > 0.4 {
		t.Errorf("TF psuc|nontardy = %v, want low", tf.PSuccessGivenNonTardy)
	}
}

func TestFig7HeavyweightUpdatesHurtUF(t *testing.T) {
	// With xupdate large, UF and SU collapse while TF/OD shrug it off.
	p := model.DefaultParams()
	p.XUpdate = 50000
	uf := MustRun(Config{Params: p, Policy: UF, Seed: 11, Duration: 100})
	tf := MustRun(Config{Params: p, Policy: TF, Seed: 11, Duration: 100})
	if uf.AvgValuePerSecond >= tf.AvgValuePerSecond-1.0 {
		t.Errorf("heavy updates: AV(UF)=%v should be well below AV(TF)=%v",
			uf.AvgValuePerSecond, tf.AvgValuePerSecond)
	}
}

func TestFig9UpdateRateSensitivity(t *testing.T) {
	// Raising lambda_u: UF loses value (more installs), TF/OD stay
	// roughly flat.
	mk := func(pol Policy, rate float64) float64 {
		p := model.DefaultParams()
		p.UpdateRate = rate
		return MustRun(Config{Params: p, Policy: pol, Seed: 13, Duration: 100}).AvgValuePerSecond
	}
	if drop := mk(UF, 200) - mk(UF, 600); drop < 0.5 {
		t.Errorf("UF AV should fall noticeably with update rate (drop=%v)", drop)
	}
	if delta := math.Abs(mk(TF, 200) - mk(TF, 600)); delta > 0.8 {
		t.Errorf("TF AV should be nearly flat in update rate (delta=%v)", delta)
	}
}

func TestFig11FIFOvsLIFO(t *testing.T) {
	// Under MA, FIFO installs nearly expired updates first, keeping
	// data staler than LIFO (for the queue-based policies).
	mk := func(order model.QueueOrder) float64 {
		p := model.DefaultParams()
		p.TxnRate = 15
		p.Order = order
		r := MustRun(Config{Params: p, Policy: TF, Seed: 17, Duration: 100})
		return r.FOldLow
	}
	fifo, lifo := mk(model.FIFO), mk(model.LIFO)
	if fifo <= lifo {
		t.Errorf("fold_l FIFO=%v should exceed LIFO=%v", fifo, lifo)
	}
}

func TestFig12AbortsKeepTFDataFresher(t *testing.T) {
	// With abort-on-stale, TF aborts stale readers early, freeing
	// time to install updates: fold_h drops dramatically (§6.2).
	p := model.DefaultParams()
	noAbort := MustRun(Config{Params: p, Policy: TF, Seed: 19, Duration: 100})
	p.OnStale = model.StaleAbort
	abort := MustRun(Config{Params: p, Policy: TF, Seed: 19, Duration: 100})
	if abort.FOldHigh >= noAbort.FOldHigh/2 {
		t.Errorf("abort fold_h = %v, want far below no-abort %v",
			abort.FOldHigh, noAbort.FOldHigh)
	}
	if abort.TxnsAbortedStale == 0 {
		t.Error("no stale aborts recorded in abort mode")
	}
}

func TestFig13ODWinsUnderAborts(t *testing.T) {
	p := model.DefaultParams()
	p.OnStale = model.StaleAbort
	best := ""
	bestAV := -1.0
	for _, pol := range Policies {
		r := MustRun(Config{Params: p, Policy: pol, Seed: 23, Duration: 100})
		if r.AvgValuePerSecond > bestAV {
			bestAV = r.AvgValuePerSecond
			best = pol.String()
		}
	}
	if best != "OD" {
		t.Errorf("AV winner under aborts = %s, want OD", best)
	}
}

func TestFig15PViewDegradesAbortPerformance(t *testing.T) {
	// The later a transaction reads view data, the more work is
	// wasted when it aborts on stale data.
	mk := func(pv float64) float64 {
		p := model.DefaultParams()
		p.PView = pv
		p.OnStale = model.StaleAbort
		return MustRun(Config{Params: p, Policy: TF, Seed: 29, Duration: 100}).AvgValuePerSecond
	}
	if early, late := mk(0.0), mk(1.0); late >= early {
		t.Errorf("AV with pview=1 (%v) should be below pview=0 (%v)", late, early)
	}
}

func TestFig16UURankingMatchesMA(t *testing.T) {
	p := model.DefaultParams()
	p.Staleness = model.UnappliedUpdate
	var got [4]float64
	for i, pol := range []Policy{OD, UF, SU, TF} {
		r := MustRun(Config{Params: p, Policy: pol, Seed: 31, Duration: 100})
		got[i] = r.PSuccess
	}
	for i := 0; i+1 < len(got); i++ {
		if got[i] <= got[i+1] {
			t.Fatalf("UU psuccess ranking broken: OD,UF,SU,TF = %v", got)
		}
	}
}

func TestUUUFNeverStale(t *testing.T) {
	// UF has no update queue, so under the literal UU criterion its
	// data is never stale (§6.3).
	p := model.DefaultParams()
	p.Staleness = model.UnappliedUpdate
	r := MustRun(Config{Params: p, Policy: UF, Seed: 37, Duration: 50})
	if r.FOldLow != 0 || r.FOldHigh != 0 {
		t.Fatalf("UF under UU: fold = %v/%v, want zero", r.FOldLow, r.FOldHigh)
	}
}

func TestCoalescingQueueExtension(t *testing.T) {
	// The coalescing queue keeps at most one update per object:
	// bounded queue length and no expired-update churn.
	p := model.DefaultParams()
	p.TxnRate = 20
	p.CoalesceQueue = true
	r := MustRun(Config{Params: p, Policy: OD, Seed: 41, Duration: 60})
	if r.MeanQueueLen > float64(p.NumObjects()) {
		t.Fatalf("coalesced queue length %v exceeds object count", r.MeanQueueLen)
	}
	base := p
	base.CoalesceQueue = false
	rb := MustRun(Config{Params: base, Policy: OD, Seed: 41, Duration: 60})
	if r.MeanQueueLen >= rb.MeanQueueLen {
		t.Fatalf("coalesced queue (%v) should be shorter than baseline (%v)",
			r.MeanQueueLen, rb.MeanQueueLen)
	}
	// Success should not degrade: the newest update per object is all
	// OD ever needs.
	if r.PSuccess < rb.PSuccess-0.05 {
		t.Fatalf("coalescing hurt psuccess: %v vs %v", r.PSuccess, rb.PSuccess)
	}
}

func TestPartitionedQueuesExtension(t *testing.T) {
	// Draining high-importance updates first keeps the high partition
	// fresher under TF.
	mk := func(part bool) float64 {
		p := model.DefaultParams()
		p.TxnRate = 15
		p.PartitionedQueues = part
		return MustRun(Config{Params: p, Policy: TF, Seed: 43, Duration: 80}).FOldHigh
	}
	if plain, part := mk(false), mk(true); part >= plain {
		t.Errorf("partitioned queues fold_h = %v, want below plain %v", part, plain)
	}
}

func TestConservationOfUpdates(t *testing.T) {
	// Every arrived update is accounted for exactly once: installed,
	// skipped, expired, overflow-dropped, OS-dropped, or still queued
	// or in flight at the end.
	for _, pol := range Policies {
		p := model.DefaultParams()
		p.TxnRate = 15
		r := MustRun(Config{Params: p, Policy: pol, Seed: 47, Duration: 50})
		accounted := r.UpdatesInstalled + r.UpdatesSkippedUnworthy +
			r.UpdatesExpired + r.UpdatesOverflowDropped + r.UpdatesOSDropped
		if accounted > r.UpdatesArrived {
			t.Errorf("%v: accounted %d > arrived %d", pol, accounted, r.UpdatesArrived)
		}
		// The residual is whatever is still queued: bounded by the
		// queue capacities.
		residual := r.UpdatesArrived - accounted
		if residual > p.UQMax+p.OSMax+1 {
			t.Errorf("%v: residual %d exceeds queue capacities", pol, residual)
		}
	}
}

func TestTxnConservation(t *testing.T) {
	for _, pol := range Policies {
		p := model.DefaultParams()
		r := MustRun(Config{Params: p, Policy: pol, Seed: 53, Duration: 50})
		resolvedSum := r.TxnsCommitted + r.TxnsAbortedDeadline + r.TxnsAbortedStale
		if resolvedSum != r.TxnsResolved {
			t.Errorf("%v: outcomes %d != resolved %d", pol, resolvedSum, r.TxnsResolved)
		}
		if r.TxnsResolved > r.TxnsArrived {
			t.Errorf("%v: resolved %d > arrived %d", pol, r.TxnsResolved, r.TxnsArrived)
		}
		// In-flight residue at the end is at most a handful.
		if r.TxnsArrived-r.TxnsResolved > 25 {
			t.Errorf("%v: %d transactions unresolved", pol, r.TxnsArrived-r.TxnsResolved)
		}
		if r.PSuccess > 1 || r.PMissedDeadline > 1 || r.PSuccessGivenNonTardy > 1 {
			t.Errorf("%v: fraction out of range: %+v", pol, r)
		}
	}
}

func TestFoldFractionsBounded(t *testing.T) {
	for _, pol := range Policies {
		for _, crit := range []model.StalenessCriterion{
			model.MaxAge, model.UnappliedUpdate, model.UnappliedUpdateStrict,
		} {
			p := model.DefaultParams()
			p.Staleness = crit
			r := MustRun(Config{Params: p, Policy: pol, Seed: 59, Duration: 30})
			if r.FOldLow < 0 || r.FOldLow > 1 || r.FOldHigh < 0 || r.FOldHigh > 1 {
				t.Errorf("%v/%v: fold out of range: %v/%v", pol, crit, r.FOldLow, r.FOldHigh)
			}
		}
	}
}

func TestMetricsWarmupChangesWindow(t *testing.T) {
	p := model.DefaultParams()
	p.MetricsWarmup = 10
	r := MustRun(Config{Params: p, Policy: TF, Seed: 61, Duration: 60})
	if r.Duration != 50 {
		t.Fatalf("measured duration = %v, want 50", r.Duration)
	}
}

func TestPeriodicUpdatesKeepDataFresh(t *testing.T) {
	// The §2 periodic model: every object refreshed every 2 s with a
	// 7 s maximum age — under UF essentially nothing is ever stale.
	p := model.DefaultParams()
	p.PeriodicPeriod = 2
	r := MustRun(Config{Params: p, Policy: UF, Seed: 67, Duration: 60})
	if r.FOldLow > 0.01 || r.FOldHigh > 0.01 {
		t.Fatalf("periodic refresh: fold = %v/%v, want about zero", r.FOldLow, r.FOldHigh)
	}
	if r.UpdatesArrived == 0 {
		t.Fatal("periodic source produced no updates")
	}
	// Rate check: 1000 objects / 2 s = 500 updates/s.
	rate := float64(r.UpdatesArrived) / 60
	if rate < 450 || rate > 550 {
		t.Fatalf("periodic update rate = %v, want about 500", rate)
	}
}

func TestCombinedStalenessIsAtLeastMA(t *testing.T) {
	p := model.DefaultParams()
	p.TxnRate = 15
	ma := MustRun(Config{Params: p, Policy: TF, Seed: 71, Duration: 60})
	p.Staleness = model.CombinedMAUU
	comb := MustRun(Config{Params: p, Policy: TF, Seed: 71, Duration: 60})
	if comb.FOldLow+1e-9 < ma.FOldLow {
		t.Fatalf("combined fold_l = %v below MA fold_l = %v", comb.FOldLow, ma.FOldLow)
	}
	if comb.FOldLow > 1 || comb.FOldHigh > 1 {
		t.Fatalf("combined fold out of range: %v/%v", comb.FOldLow, comb.FOldHigh)
	}
}

func TestResponseTimesReported(t *testing.T) {
	p := model.DefaultParams()
	r := MustRun(Config{Params: p, Policy: TF, Seed: 73, Duration: 60})
	// Committed transactions take at least their computation time
	// (~0.12 s) and at most estimate + max slack (~1.12 s).
	if r.ResponseMean < 0.1 || r.ResponseMean > 1.2 {
		t.Fatalf("ResponseMean = %v", r.ResponseMean)
	}
	if r.ResponseP95 < r.ResponseMean {
		t.Fatalf("p95 %v below mean %v", r.ResponseP95, r.ResponseMean)
	}
}

func TestBurstyStreamHurtsFreshness(t *testing.T) {
	// At the same average rate, a bursty stream overflows the
	// system's update budget during bursts; the backlog ages and
	// freshness suffers relative to the smooth stream.
	p := model.DefaultParams()
	p.TxnRate = 8
	smooth := MustRun(Config{Params: p, Policy: TF, Seed: 89, Duration: 100})
	p.BurstFactor = 8
	bursty := MustRun(Config{Params: p, Policy: TF, Seed: 89, Duration: 100})
	if bursty.UpdatesArrived < smooth.UpdatesArrived/2 ||
		bursty.UpdatesArrived > smooth.UpdatesArrived*2 {
		t.Fatalf("bursty average rate drifted: %d vs %d arrivals",
			bursty.UpdatesArrived, smooth.UpdatesArrived)
	}
	if bursty.FOldLow <= smooth.FOldLow {
		t.Fatalf("bursty fold_l = %v should exceed smooth %v",
			bursty.FOldLow, smooth.FOldLow)
	}
}

func TestTraceDrivenRunMatchesSynthetic(t *testing.T) {
	// Record the synthetic stream to a trace and replay it: the
	// update-side metrics must match the synthetic run exactly.
	p := model.DefaultParams()
	p.TxnRate = 0 // isolate the update path
	base := MustRun(Config{Params: p, Policy: TF, Seed: 97, Duration: 20})

	var sb strings.Builder
	gen := workload.NewUpdateGenerator(&p, stats.NewRNG(97, 0x5DEECE66D).Split())
	_ = gen
	// Regenerate the exact stream the run used: same derivation as
	// sched.Run (root split order: updates first).
	root := stats.NewRNG(97, 0x5DEECE66D)
	ug := workload.NewUpdateGenerator(&p, root.Split())
	for {
		u := ug.Next()
		if u == nil || u.ArrivalTime > 20 {
			break
		}
		sb.WriteString(workload.WriteTraceLine(u) + "\n")
	}
	replay := MustRunTrace(t, Config{
		Params: p, Policy: TF, Seed: 97, Duration: 20,
		UpdateTrace: strings.NewReader(sb.String()),
	})
	if replay.UpdatesArrived != base.UpdatesArrived ||
		replay.UpdatesInstalled != base.UpdatesInstalled ||
		replay.FOldLow != base.FOldLow {
		t.Fatalf("replay diverged:\nbase   %+v\nreplay %+v", base, replay)
	}
}

// MustRunTrace is a test helper for trace-driven runs.
func MustRunTrace(t *testing.T, cfg Config) metrics.Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTraceDrivenRunSurfacesErrors(t *testing.T) {
	p := model.DefaultParams()
	_, err := Run(Config{
		Params: p, Policy: TF, Seed: 1, Duration: 5,
		UpdateTrace: strings.NewReader("garbage line\n"),
	})
	if err == nil {
		t.Fatal("malformed trace should fail the run")
	}
}

func TestFig6SUDipAndRecovery(t *testing.T) {
	// The paper's most distinctive curve: SU's psuc|nontardy dips as
	// load grows (low-value transactions still complete but read the
	// stale low partition) and then recovers at overload (only
	// high-value transactions survive, and SU keeps their data
	// fresh).
	get := func(rate float64) float64 {
		p := model.DefaultParams()
		p.TxnRate = rate
		r := MustRun(Config{Params: p, Policy: SU, Seed: 101, Duration: 100})
		return r.PSuccessGivenNonTardy
	}
	light, mid, heavy := get(5), get(10), get(25)
	if !(mid < light && mid < heavy) {
		t.Fatalf("SU dip missing: %.3f (5) -> %.3f (10) -> %.3f (25)", light, mid, heavy)
	}
}

func TestFig3SaturationKnee(t *testing.T) {
	// Total utilization reaches 1 at about lambda_t = 10 for every
	// algorithm and is clearly below it at lambda_t = 5.
	for _, pol := range Policies {
		p := model.DefaultParams()
		p.TxnRate = 5
		light := MustRun(Config{Params: p, Policy: pol, Seed: 103, Duration: 60})
		if tot := light.RhoTxn + light.RhoUpdate; tot > 0.9 {
			t.Errorf("%v: utilization %v at lambda_t=5, want < 0.9", pol, tot)
		}
		p.TxnRate = 12
		loaded := MustRun(Config{Params: p, Policy: pol, Seed: 103, Duration: 60})
		if tot := loaded.RhoTxn + loaded.RhoUpdate; tot < 0.97 {
			t.Errorf("%v: utilization %v at lambda_t=12, want about 1", pol, tot)
		}
	}
}
