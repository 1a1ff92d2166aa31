package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of sorted by the
// nearest-rank rule; 0 when there is nothing to rank.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += float64(v)
	}
	return sum / float64(len(vals))
}

// quartiles returns what Python's statistics.quantiles(vals, n=4)
// returns (the exclusive method), so spreads computed here are the
// driver's spreads. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// intervals cuts a measured window into intervals of one second (the
// smoke test's are shorter). A metric is computed inside every
// interval and the median interval is reported, so one noisy second on
// a shared machine moves neither a rate nor a p99.
type intervals struct {
	from  int64 // window start, ns on the caller's time axis
	n     int   // intervals in the window
	width int64 // ns
}

// index returns the interval holding t, or -1 outside the window.
func (iv intervals) index(t int64) int {
	if t < iv.from {
		return -1
	}
	if i := int((t - iv.from) / iv.width); i < iv.n {
		return i
	}
	return -1
}

// bucket spreads values over the window's intervals; pick returns a
// sample's time and value, and ok false to leave it out.
func bucket[T any](iv intervals, samples []T, pick func(*T) (t, v int64, ok bool)) [][]int64 {
	out := make([][]int64, iv.n)
	for i := range samples {
		t, v, ok := pick(&samples[i])
		if !ok {
			continue
		}
		if k := iv.index(t); k >= 0 {
			out[k] = append(out[k], v)
		}
	}
	for _, b := range out {
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	}
	return out
}

// minTail is the least number of samples an interval needs beyond a
// percentile for that percentile to be reported from it.
const minTail = 10

// intervalPercentile is the median over intervals of each interval's
// p-quantile, and the samples it rests on. Intervals too thin to have
// minTail samples beyond p are pooled into one.
func intervalPercentile(buckets [][]int64, p float64) (v float64, n int) {
	var per []float64
	var thin []int64
	for _, b := range buckets {
		n += len(b)
		if float64(len(b))*(1-p) >= minTail {
			per = append(per, percentile(b, p))
		} else {
			thin = append(thin, b...)
		}
	}
	if len(per) == 0 {
		sort.Slice(thin, func(i, j int) bool { return thin[i] < thin[j] })
		return percentile(thin, p), n
	}
	return median(per), n
}
