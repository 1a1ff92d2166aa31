package obs

import "sync/atomic"

// Histogram is a fixed-bucket histogram over int64 observations
// (typically nanoseconds). Bounds are inclusive upper edges in
// ascending order, with an implicit +Inf bucket at the end. Observe
// is allocation-free: one linear scan over a small bound slice plus
// two atomic adds.
//
// Two atomic adds per observation are still the dearest thing a
// histogram does, so a writer that observes in runs has a staged form:
// ObserveStaged counts into plain per-bucket cells and Flush folds them
// into the atomics, once per run. The staged cells belong to a single
// writer, which serialises ObserveStaged and Flush itself and flushes
// before it lets a reader expect the observations (the database stages
// and flushes inside one hold of its lock); readers only ever see the
// atomics.
//
// A per-unit divisor converts raw observations to exposition units at
// snapshot time — latency histograms observe nanoseconds and expose
// seconds (perUnit 1e9) so the hot path never touches floating point,
// and integer division keeps bucket edges like 1e-06 exact in the
// text format.
type Histogram struct {
	bounds  []int64
	perUnit float64
	counts  []atomic.Uint64
	sum     atomic.Int64

	staged    []uint64 // per bucket, not yet in counts
	stagedSum int64
}

func newHistogram(bounds []int64, perUnit int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	if perUnit <= 0 {
		panic("obs: histogram perUnit must be positive")
	}
	return &Histogram{
		bounds:  bounds,
		perUnit: float64(perUnit),
		counts:  make([]atomic.Uint64, len(bounds)+1),
		staged:  make([]uint64, len(bounds)+1),
	}
}

// Histogram registers and returns a new histogram. bounds are
// inclusive upper edges in the observation's raw unit; perUnit is the
// number of raw units per exposed unit (1e9 for nanoseconds exposed
// as seconds, 1 for dimensionless counts).
func (r *Registry) Histogram(name, help string, bounds []int64, perUnit int64) *Histogram {
	h := newHistogram(bounds, perUnit)
	r.add(&series{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// Observe records one value. Negative values (possible when spans are
// computed across an injected clock that did not advance, or from a
// stepping wall clock) clamp to zero rather than corrupting the sum.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value for the cost of
// one.
func (h *Histogram) ObserveN(v int64, n int) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[h.bucket(v)].Add(uint64(n))
	h.sum.Add(v * int64(n))
}

// ObserveStaged records one value (clamped like Observe's) in the
// staged cells; it is not visible to readers until Flush. Single
// writer only.
func (h *Histogram) ObserveStaged(v int64) {
	if v < 0 {
		v = 0
	}
	h.staged[h.bucket(v)]++
	h.stagedSum += v
}

// Flush folds the staged observations into the histogram: one atomic
// add per bucket that was hit and one for the sum. Single writer only.
func (h *Histogram) Flush() {
	for i, n := range h.staged {
		if n != 0 {
			h.counts[i].Add(n)
			h.staged[i] = 0
		}
	}
	if h.stagedSum != 0 {
		h.sum.Add(h.stagedSum)
		h.stagedSum = 0
	}
}

// bucket returns the index of the bucket a non-negative value falls in.
func (h *Histogram) bucket(v int64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observations in exposed units.
func (h *Histogram) Sum() float64 {
	return float64(h.sum.Load()) / h.perUnit
}

// Quantile returns an upper-bound estimate of the q-quantile in
// exposed units: the bucket edge at or above which the q-fraction of
// observations falls. The +Inf bucket reports the last finite edge
// (the histogram cannot resolve beyond it). Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i >= len(h.bounds) {
				return float64(h.bounds[len(h.bounds)-1]) / h.perUnit
			}
			return float64(h.bounds[i]) / h.perUnit
		}
	}
	return float64(h.bounds[len(h.bounds)-1]) / h.perUnit
}

// LatencyBuckets covers pipeline-stage and commit latencies: 1µs to
// 10s in roughly 1-2.5-5 steps, observed in nanoseconds, exposed in
// seconds with scale 1e-9.
func LatencyBuckets() []int64 {
	return []int64{
		1e3, 2_500, 5e3, // 1µs 2.5µs 5µs
		1e4, 25e3, 5e4, // 10µs 25µs 50µs
		1e5, 25e4, 5e5, // 100µs 250µs 500µs
		1e6, 25e5, 5e6, // 1ms 2.5ms 5ms
		1e7, 25e6, 5e7, // 10ms 25ms 50ms
		1e8, 25e7, 5e8, // 100ms 250ms 500ms
		1e9, 25e8, 5e9, 1e10, // 1s 2.5s 5s 10s
	}
}

// AgeBuckets covers staleness (install-time age of a value): 1ms to
// 60s, observed in nanoseconds, exposed in seconds with perUnit 1e9.
// Staleness is bounded below by feed cadence, not syscall latency, so
// the low edges start coarser than LatencyBuckets.
func AgeBuckets() []int64 {
	return []int64{
		1e6, 5e6, // 1ms 5ms
		1e7, 5e7, // 10ms 50ms
		1e8, 25e7, 5e8, // 100ms 250ms 500ms
		1e9, 25e8, 5e9, // 1s 2.5s 5s
		1e10, 3e10, 6e10, // 10s 30s 60s
	}
}

// CountBuckets covers discrete sizes (queue backlogs): powers of two
// from 1 to 8192 plus a zero bucket, perUnit 1 (exposed as-is).
func CountBuckets() []int64 {
	return []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
}
