package workload

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

func TestUpdateGeneratorRateAndMix(t *testing.T) {
	p := model.DefaultParams()
	g := NewUpdateGenerator(&p, stats.NewRNG(1, 2))
	const n = 100000
	low := 0
	var lastArrival float64
	var ageSum float64
	for i := 0; i < n; i++ {
		u := g.Next()
		if u.ArrivalTime <= lastArrival && i > 0 {
			t.Fatal("arrival times must strictly increase")
		}
		lastArrival = u.ArrivalTime
		if u.Class == model.Low {
			low++
			if int(u.Object) < 0 || int(u.Object) >= p.NLow {
				t.Fatalf("low update targets object %d", u.Object)
			}
		} else if int(u.Object) < p.NLow || int(u.Object) >= p.NumObjects() {
			t.Fatalf("high update targets object %d", u.Object)
		}
		if u.Class != p.ObjectClass(u.Object) {
			t.Fatal("update class disagrees with object partition")
		}
		age := u.ArrivalTime - u.GenTime
		if age < 0 {
			t.Fatalf("negative network age %v", age)
		}
		ageSum += age
	}
	// Arrival rate: n updates over lastArrival seconds ≈ 400/s.
	rate := float64(n) / lastArrival
	if math.Abs(rate-400) > 10 {
		t.Fatalf("arrival rate = %v, want about 400", rate)
	}
	if mix := float64(low) / n; math.Abs(mix-0.5) > 0.01 {
		t.Fatalf("low mix = %v, want about 0.5", mix)
	}
	if meanAge := ageSum / n; math.Abs(meanAge-0.1) > 0.005 {
		t.Fatalf("mean age = %v, want about 0.1", meanAge)
	}
}

func TestUpdateGeneratorZeroRate(t *testing.T) {
	p := model.DefaultParams()
	p.UpdateRate = 0
	g := NewUpdateGenerator(&p, stats.NewRNG(1, 2))
	if g.Next() != nil {
		t.Fatal("zero-rate generator should return nil")
	}
}

func TestUpdateGeneratorEmptyPartitionFallback(t *testing.T) {
	p := model.DefaultParams()
	p.NLow = 0
	p.NHigh = 10
	g := NewUpdateGenerator(&p, stats.NewRNG(1, 2))
	for i := 0; i < 1000; i++ {
		u := g.Next()
		if u.Class != model.High {
			t.Fatal("updates must fall back to the non-empty partition")
		}
	}
}

func TestUpdateGeneratorDeterminism(t *testing.T) {
	p := model.DefaultParams()
	a := NewUpdateGenerator(&p, stats.NewRNG(5, 6))
	b := NewUpdateGenerator(&p, stats.NewRNG(5, 6))
	for i := 0; i < 1000; i++ {
		ua, ub := a.Next(), b.Next()
		if *ua != *ub {
			t.Fatalf("generators with equal seeds diverged at %d", i)
		}
	}
}

func TestUpdateSeqUnique(t *testing.T) {
	p := model.DefaultParams()
	g := NewUpdateGenerator(&p, stats.NewRNG(9, 9))
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		u := g.Next()
		if seen[u.Seq] {
			t.Fatalf("duplicate Seq %d", u.Seq)
		}
		seen[u.Seq] = true
	}
}

func TestPeriodicSourceCoversAllObjects(t *testing.T) {
	p := model.DefaultParams()
	p.NLow, p.NHigh = 5, 5
	src := NewPeriodicUpdateSource(&p, 1.0, stats.NewRNG(3, 4))
	counts := map[model.ObjectID]int{}
	var last float64
	for i := 0; i < 100; i++ {
		u := src.Next()
		if u.ArrivalTime < last {
			t.Fatal("periodic arrivals must be non-decreasing")
		}
		last = u.ArrivalTime
		counts[u.Object]++
	}
	// 100 refreshes over 10 objects with period 1: each object close
	// to 10 times.
	for obj, c := range counts {
		if c < 9 || c > 11 {
			t.Fatalf("object %d refreshed %d times, want about 10", obj, c)
		}
	}
	if len(counts) != 10 {
		t.Fatalf("only %d objects refreshed", len(counts))
	}
}

func TestTxnGeneratorShape(t *testing.T) {
	p := model.DefaultParams()
	g := NewTxnGenerator(&p, stats.NewRNG(11, 12))
	const n = 50000
	low := 0
	var compSum, valueLowSum, valueHighSum float64
	var nLow, nHigh int
	var readsSum float64
	var lastArrival float64
	for i := 0; i < n; i++ {
		txn := g.Next()
		if txn.ArrivalTime <= lastArrival && i > 0 {
			t.Fatal("txn arrivals must strictly increase")
		}
		lastArrival = txn.ArrivalTime
		if txn.Value <= 0 || txn.CompSeconds <= 0 {
			t.Fatalf("non-positive value %v or computation %v", txn.Value, txn.CompSeconds)
		}
		est := EstimateSeconds(&p, txn)
		slack := txn.Deadline - txn.ArrivalTime - est
		if slack < p.SlackMin-1e-9 || slack > p.SlackMax+1e-9 {
			t.Fatalf("slack %v outside [%v,%v]", slack, p.SlackMin, p.SlackMax)
		}
		for _, obj := range txn.ReadSet {
			if p.ObjectClass(obj) != txn.Class {
				t.Fatal("transaction reads outside its class partition")
			}
		}
		if txn.Class == model.Low {
			low++
			nLow++
			valueLowSum += txn.Value
		} else {
			nHigh++
			valueHighSum += txn.Value
		}
		compSum += txn.CompSeconds
		readsSum += float64(len(txn.ReadSet))
	}
	rate := float64(n) / lastArrival
	if math.Abs(rate-10) > 0.3 {
		t.Fatalf("txn rate = %v, want about 10", rate)
	}
	if mix := float64(low) / n; math.Abs(mix-0.5) > 0.01 {
		t.Fatalf("low mix = %v", mix)
	}
	if m := compSum / n; math.Abs(m-0.12) > 0.001 {
		t.Fatalf("mean computation = %v, want about 0.12", m)
	}
	if m := readsSum / n; m < 1.9 || m > 2.2 {
		t.Fatalf("mean reads = %v, want about 2", m)
	}
	// Truncation at zero pulls the means slightly above the nominal.
	if m := valueLowSum / float64(nLow); m < 0.95 || m > 1.15 {
		t.Fatalf("low value mean = %v, want about 1.0", m)
	}
	if m := valueHighSum / float64(nHigh); m < 1.95 || m > 2.1 {
		t.Fatalf("high value mean = %v, want about 2.0", m)
	}
}

func TestTxnGeneratorZeroRate(t *testing.T) {
	p := model.DefaultParams()
	p.TxnRate = 0
	g := NewTxnGenerator(&p, stats.NewRNG(1, 2))
	if g.Next() != nil {
		t.Fatal("zero-rate generator should return nil")
	}
}

func TestTxnGeneratorDeterminism(t *testing.T) {
	p := model.DefaultParams()
	a := NewTxnGenerator(&p, stats.NewRNG(7, 8))
	b := NewTxnGenerator(&p, stats.NewRNG(7, 8))
	for i := 0; i < 500; i++ {
		ta, tb := a.Next(), b.Next()
		if ta.ID != tb.ID || ta.Value != tb.Value || ta.Deadline != tb.Deadline ||
			len(ta.ReadSet) != len(tb.ReadSet) {
			t.Fatalf("generators diverged at %d", i)
		}
	}
}

func TestEstimateSeconds(t *testing.T) {
	p := model.DefaultParams()
	txn := &model.Txn{CompSeconds: 0.1, ReadSet: make([]model.ObjectID, 3)}
	// 0.1 + 3*4000/50e6 = 0.10024
	if got, want := EstimateSeconds(&p, txn), 0.10024; math.Abs(got-want) > 1e-12 {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
}

func TestTxnGeneratorPViewPropagates(t *testing.T) {
	p := model.DefaultParams()
	p.PView = 0.4
	g := NewTxnGenerator(&p, stats.NewRNG(1, 2))
	if txn := g.Next(); txn.PView != 0.4 {
		t.Fatalf("PView = %v", txn.PView)
	}
}

func TestBurstyGeneratorPreservesAverageRate(t *testing.T) {
	p := model.DefaultParams()
	for _, factor := range []float64{1, 2, 8} {
		g := NewBurstyUpdateGenerator(&p, stats.NewRNG(31, 32), factor, 4, 1)
		const n = 200000
		var last float64
		for i := 0; i < n; i++ {
			u := g.Next()
			if u.ArrivalTime < last {
				t.Fatal("bursty arrivals must be non-decreasing")
			}
			last = u.ArrivalTime
		}
		rate := float64(n) / last
		if math.Abs(rate-400)/400 > 0.05 {
			t.Fatalf("factor %v: average rate = %v, want about 400", factor, rate)
		}
	}
}

func TestBurstyGeneratorIsActuallyBursty(t *testing.T) {
	// Count arrivals in 100 ms windows; a bursty stream has a much
	// higher variance-to-mean ratio than Poisson (which has ~1).
	p := model.DefaultParams()
	vmr := func(factor float64) float64 {
		g := NewBurstyUpdateGenerator(&p, stats.NewRNG(7, 9), factor, 4, 1)
		counts := map[int]int{}
		maxWin := 0
		for i := 0; i < 200000; i++ {
			u := g.Next()
			w := int(u.ArrivalTime / 0.1)
			counts[w]++
			if w > maxWin {
				maxWin = w
			}
		}
		var s stats.Summary
		for w := 0; w < maxWin; w++ {
			s.Add(float64(counts[w]))
		}
		return s.Variance() / s.Mean()
	}
	poissonVMR := vmr(1)
	burstyVMR := vmr(8)
	if poissonVMR > 3 {
		t.Fatalf("factor-1 stream should be near-Poisson: VMR = %v", poissonVMR)
	}
	if burstyVMR < 5*poissonVMR {
		t.Fatalf("factor-8 stream should be strongly bursty: VMR %v vs %v",
			burstyVMR, poissonVMR)
	}
}

func TestBurstyGeneratorZeroRate(t *testing.T) {
	p := model.DefaultParams()
	p.UpdateRate = 0
	g := NewBurstyUpdateGenerator(&p, stats.NewRNG(1, 2), 4, 4, 1)
	if g.Next() != nil {
		t.Fatal("zero-rate bursty generator should return nil")
	}
}

func TestBurstyGeneratorDefensiveArgs(t *testing.T) {
	p := model.DefaultParams()
	g := NewBurstyUpdateGenerator(&p, stats.NewRNG(1, 2), 0.5, -1, 0)
	// Degenerate arguments are clamped; the stream still works.
	for i := 0; i < 1000; i++ {
		if g.Next() == nil {
			t.Fatal("clamped generator returned nil")
		}
	}
}

func TestBurstyGeneratorClassPartition(t *testing.T) {
	p := model.DefaultParams()
	g := NewBurstyUpdateGenerator(&p, stats.NewRNG(3, 5), 4, 4, 1)
	for i := 0; i < 5000; i++ {
		u := g.Next()
		if u.Class != p.ObjectClass(u.Object) {
			t.Fatal("bursty update class disagrees with partition")
		}
		if u.ArrivalTime < u.GenTime {
			t.Fatal("negative network age")
		}
	}
}
