package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WriteText renders every registered series in the Prometheus text
// exposition format, in registration order. The func-backed series are
// read first, in one collection (see Collect), so the mirrors of one
// source are one snapshot of it; counters, gauges and histogram buckets
// are read atomically per series as they are written (across those
// series the scrape is not a consistent cut — no scrape format offers
// that without stopping the world). Equal states render to identical
// bytes, which the determinism tests rely on.
func (r *Registry) WriteText(w io.Writer) error {
	ss := r.snapshot()
	vals := r.evaluate(ss)
	bw := bufio.NewWriter(w)
	for i, s := range ss {
		if s.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(s.name)
			bw.WriteByte(' ')
			bw.WriteString(s.help)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(s.name)
		switch s.kind {
		case kindCounter, kindCounterFunc:
			bw.WriteString(" counter\n")
		case kindGauge, kindGaugeFunc:
			bw.WriteString(" gauge\n")
		case kindHistogram:
			bw.WriteString(" histogram\n")
		}
		switch s.kind {
		case kindCounter:
			writeSample(bw, s.name, float64(s.counter.Value()))
		case kindCounterFunc, kindGaugeFunc:
			writeSample(bw, s.name, vals[i])
		case kindGauge:
			writeSample(bw, s.name, s.gauge.Value())
		case kindHistogram:
			writeHistogram(bw, s.name, s.hist)
		}
	}
	return bw.Flush()
}

func writeSample(bw *bufio.Writer, name string, v float64) {
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

// writeHistogram emits cumulative _bucket lines, then _sum and
// _count, matching the Prometheus histogram convention.
func writeHistogram(bw *bufio.Writer, name string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		bw.WriteString(name)
		bw.WriteString(`_bucket{le="`)
		bw.WriteString(formatFloat(float64(bound) / h.perUnit))
		bw.WriteString(`"} `)
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	bw.WriteString(name)
	bw.WriteString(`_bucket{le="+Inf"} `)
	bw.WriteString(strconv.FormatUint(cum, 10))
	bw.WriteByte('\n')

	bw.WriteString(name)
	bw.WriteString("_sum ")
	bw.WriteString(formatFloat(h.Sum()))
	bw.WriteByte('\n')

	bw.WriteString(name)
	bw.WriteString("_count ")
	bw.WriteString(strconv.FormatUint(cum, 10))
	bw.WriteByte('\n')
}

// formatFloat uses the shortest round-trippable representation, so
// integral values print without a trailing ".0" and bucket edges like
// 2.5e-06 stay stable across runs.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
