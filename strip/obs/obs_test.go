package obs

import (
	"math"
	"math/bits"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_events_total", "events seen")
	g := reg.Gauge("test_depth", "current depth")

	c.Inc()
	c.Add(4)
	g.Set(2.5)

	if v, ok := reg.Value("test_events_total"); !ok || v != 5 {
		t.Fatalf("counter value = %v, %v; want 5, true", v, ok)
	}
	if v, ok := reg.Value("test_depth"); !ok || v != 2.5 {
		t.Fatalf("gauge value = %v, %v; want 2.5, true", v, ok)
	}
	if _, ok := reg.Value("test_missing"); ok {
		t.Fatal("missing series reported a value")
	}
}

func TestFuncSeries(t *testing.T) {
	reg := NewRegistry()
	n := uint64(7)
	reg.CounterFunc("test_fn_total", "", func() uint64 { return n })
	reg.GaugeFunc("test_fn_gauge", "", func() float64 { return float64(n) / 2 })

	if v, _ := reg.Value("test_fn_total"); v != 7 {
		t.Fatalf("counter func = %v, want 7", v)
	}
	n = 9
	if v, _ := reg.Value("test_fn_gauge"); v != 4.5 {
		t.Fatalf("gauge func = %v, want 4.5", v)
	}
}

func TestDuplicateAndInvalidNamesPanic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "")
	mustPanic(t, "duplicate", func() { reg.Gauge("dup_total", "") })
	mustPanic(t, "invalid char", func() { reg.Counter("bad-name", "") })
	mustPanic(t, "leading digit", func() { reg.Counter("0bad", "") })
	mustPanic(t, "empty", func() { reg.Counter("", "") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestHistogramObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_lat_seconds", "", []int64{10, 100, 1000}, 1e9)

	h.Observe(5)    // bucket le=10
	h.Observe(10)   // inclusive edge: le=10
	h.Observe(50)   // le=100
	h.Observe(5000) // +Inf
	h.Observe(-3)   // clamps to 0, le=10

	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	wantSum := float64(5+10+50+5000) / 1e9
	if got := h.Sum(); got != wantSum {
		t.Fatalf("Sum = %g, want %g", got, wantSum)
	}
	counts := []uint64{h.counts[0].Load(), h.counts[1].Load(), h.counts[2].Load(), h.counts[3].Load()}
	want := []uint64{3, 1, 0, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], want[i], counts)
		}
	}
	if hh, ok := reg.HistogramFor("test_lat_seconds"); !ok || hh != h {
		t.Fatal("HistogramFor lookup failed")
	}
}

// TestHistogramStagedAndObserveN: observations staged and flushed, and
// n equal observations recorded at once, leave the histogram exactly as
// recording each with Observe does — buckets and sum — and nothing is
// visible before the flush or left staged after it.
func TestHistogramStagedAndObserveN(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	cases := []struct {
		name   string
		values []int64
	}{
		{"empty", nil},
		{"one bucket", []int64{3, 3, 3}},
		{"edges are inclusive", []int64{10, 11, 100, 101, 1000}},
		{"negative clamps to zero", []int64{-3, -1 << 40, 0, 5}},
		{"+Inf bucket", []int64{1001, 1 << 50, 7}},
		{"a run of equal shares", []int64{42, 42, 42, 42, 42, 42}},
	}
	same := func(t *testing.T, what string, got, want *Histogram) {
		t.Helper()
		for i := range want.counts {
			if got.counts[i].Load() != want.counts[i].Load() {
				t.Errorf("%s: bucket %d = %d, want %d", what, i, got.counts[i].Load(), want.counts[i].Load())
			}
		}
		if got.sum.Load() != want.sum.Load() {
			t.Errorf("%s: sum = %d, want %d", what, got.sum.Load(), want.sum.Load())
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, staged, byN := newHistogram(bounds, 1), newHistogram(bounds, 1), newHistogram(bounds, 1)
			for _, v := range c.values {
				want.Observe(v)
				staged.ObserveStaged(v)
			}
			if staged.Count() != 0 || staged.Sum() != 0 {
				t.Errorf("staged observations are visible before Flush: count %d sum %v", staged.Count(), staged.Sum())
			}
			staged.Flush()
			same(t, "staged", staged, want)
			staged.Flush() // nothing left: a second flush adds nothing
			same(t, "flushed twice", staged, want)

			// Runs of equal values go in as one ObserveN each.
			for i := 0; i < len(c.values); {
				j := i
				for j < len(c.values) && c.values[j] == c.values[i] {
					j++
				}
				byN.ObserveN(c.values[i], j-i)
				i = j
			}
			byN.ObserveN(99, 0) // no observations: no trace
			same(t, "ObserveN", byN, want)
		})
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000}, 1)
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(500)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("p50 = %v, want 10", q)
	}
	if q := h.Quantile(0.99); q != 1000 {
		t.Fatalf("p99 = %v, want 1000", q)
	}
	h.Observe(1e9) // +Inf bucket reports last finite edge
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %v, want 1000", q)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	mustPanic(t, "empty bounds", func() { newHistogram(nil, 1) })
	mustPanic(t, "non-ascending", func() { newHistogram([]int64{10, 10}, 1) })
}

// TestWriteTextGolden pins the exposition format byte for byte: this
// is the contract stripd serves and the determinism test diffs.
func TestWriteTextGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("demo_updates_total", "updates received")
	g := reg.Gauge("demo_queue_len", "queue length")
	reg.CounterFunc("demo_fn_total", "", func() uint64 { return 3 })
	h := reg.Histogram("demo_wait_seconds", "queue wait", []int64{1000, 1000000}, 1e9)

	c.Add(12)
	g.Set(4)
	h.Observe(500)
	h.Observe(2000)
	h.Observe(5_000_000)

	const want = `# HELP demo_updates_total updates received
# TYPE demo_updates_total counter
demo_updates_total 12
# HELP demo_queue_len queue length
# TYPE demo_queue_len gauge
demo_queue_len 4
# TYPE demo_fn_total counter
demo_fn_total 3
# HELP demo_wait_seconds queue wait
# TYPE demo_wait_seconds histogram
demo_wait_seconds_bucket{le="1e-06"} 1
demo_wait_seconds_bucket{le="0.001"} 2
demo_wait_seconds_bucket{le="+Inf"} 3
demo_wait_seconds_sum 0.0050025
demo_wait_seconds_count 3
`
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	build := func() string {
		reg := NewRegistry()
		reg.Counter("a_total", "x").Add(2)
		reg.Histogram("b_seconds", "y", LatencyBuckets(), 1e9).Observe(1234)
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("identical registries rendered differently:\n%s\nvs\n%s", a, b)
	}
}

func TestTraceRing(t *testing.T) {
	if r := NewTraceRing(0); r != nil {
		t.Fatal("depth 0 should disable the ring")
	}
	var nilRing *TraceRing
	nilRing.Record(NewTrace()) // nil-safe
	if got := nilRing.Snapshot(); got != nil {
		t.Fatalf("nil ring snapshot = %v, want nil", got)
	}

	r := NewTraceRing(3)
	for seq := uint64(1); seq <= 5; seq++ {
		tr := NewTrace()
		tr.Seq = seq
		tr.Spans[StageInstall] = int64(seq * 10)
		r.Record(tr)
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, wantSeq := range []uint64{5, 4, 3} {
		if got[i].Seq != wantSeq {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, got[i].Seq, wantSeq)
		}
		if got[i].Spans[StageInstall] != int64(wantSeq*10) {
			t.Fatalf("snapshot[%d] install span = %d", i, got[i].Spans[StageInstall])
		}
		if got[i].Spans[StageDecode] != -1 {
			t.Fatal("unvisited span should be -1")
		}
	}
}

func TestStageString(t *testing.T) {
	want := []string{
		"decode", "queue_wait", "install", "trigger",
		"wal_append", "wal_fsync", "repl_publish", "replica_apply",
	}
	if NumStages != len(want) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Fatalf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if Stage(-1).String() != "unknown" || Stage(NumStages).String() != "unknown" {
		t.Fatal("out-of-range stage should stringify as unknown")
	}
}

func TestBucketHelpersAscending(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds []int64
	}{
		{"latency", LatencyBuckets()},
		{"age", AgeBuckets()},
		{"count", CountBuckets()},
	} {
		for i := 1; i < len(tc.bounds); i++ {
			if tc.bounds[i] <= tc.bounds[i-1] {
				t.Fatalf("%s bounds not ascending at %d: %v", tc.name, i, tc.bounds)
			}
		}
	}
}

// TestBucketMatchesLinearScan checks the bit-length lookup against the
// plain scan over each bound set the engine uses, at zero, at every
// bound and one either side of it, and at the largest int64; and that
// no lookup passes more than one bound after its starting bucket.
func TestBucketMatchesLinearScan(t *testing.T) {
	linear := func(bounds []int64, v int64) int {
		i := 0
		for i < len(bounds) && v > bounds[i] {
			i++
		}
		return i
	}
	for _, tc := range []struct {
		name   string
		bounds []int64
	}{
		{"latency", LatencyBuckets()},
		{"age", AgeBuckets()},
		{"count", CountBuckets()},
	} {
		h := newHistogram(tc.bounds, 1)
		values := []int64{0, math.MaxInt64}
		for _, b := range tc.bounds {
			values = append(values, b-1, b, b+1)
		}
		for _, v := range values {
			if v < 0 {
				continue
			}
			got, want := h.bucket(v), linear(tc.bounds, v)
			if got != want {
				t.Errorf("%s: bucket(%d) = %d, the linear scan says %d", tc.name, v, got, want)
			}
			if passed := got - int(h.start[bits.Len64(uint64(v))]); passed > 1 {
				t.Errorf("%s: bucket(%d) passed %d bounds after its start", tc.name, v, passed)
			}
		}
	}
}
