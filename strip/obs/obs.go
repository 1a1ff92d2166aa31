// Package obs is the strip runtime's observability layer: a
// zero-dependency metrics registry (counters, gauges and fixed-bucket
// histograms with a deterministic snapshot order), a bounded ring of
// recent end-to-end update traces, a Prometheus-compatible text
// exposition, and an HTTP mux serving it next to net/http/pprof.
//
// The paper's entire contribution is *measuring* freshness — MA/UU
// staleness under different scheduling policies — so the database
// cannot settle for point-in-time counters: distributions (a
// commit-latency tail, a staleness histogram, per-stage pipeline
// spans) are what make a soft real-time engine tunable. The package
// is deliberately independent of the strip package so the database,
// the replication subsystem, the election engine and the WAL can all
// register into one registry without an import cycle.
//
// Hot-path cost is the design constraint throughout: Counter.Inc and
// Histogram.Observe are a handful of atomic operations with zero
// allocations, series are pre-registered at construction time, and
// the text exposition walks the registration-order slice so equal
// states serialize to equal bytes (the determinism tests compare
// snapshots bit for bit).
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent
// use. The zero value is ready; NewCounter exists for symmetry and
// for callers that register the counter indirectly via CounterFunc.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter, useful for subsystems that
// count unconditionally and register into a registry only when one is
// supplied (via Registry.CounterFunc over Value).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent
// use. The zero value reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone gauge (see NewCounter).
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// kind discriminates the series types a registry holds.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// series is one registered metric: exactly one of the typed fields is
// set, per kind.
type series struct {
	name string
	help string
	kind kind

	counter   *Counter
	gauge     *Gauge
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// Registry holds a fixed set of named series. Registration normally
// happens once at construction time (strip.Open, repl.NewPrimary,
// stripd startup); reads — Inc/Observe through the returned handles —
// are lock-free. Snapshots (WriteText, Value, HistogramFor) iterate
// the series in registration order, which is what makes two snapshots
// of equal states byte-identical.
type Registry struct {
	mu         sync.Mutex
	series     []*series
	byName     map[string]*series
	collectors []func()

	// collect serializes the reads that run the collectors (see
	// Collect); it guards nothing of the registry's own.
	collect sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*series)}
}

// add registers one series, panicking on an invalid or duplicate
// name: both are programmer errors at construction time, not runtime
// conditions to handle.
func (r *Registry) add(s *series) {
	if !validName(s.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", s.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[s.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", s.name))
	}
	r.byName[s.name] = s
	r.series = append(r.series, s)
}

// validName enforces the Prometheus metric-name charset:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := NewCounter()
	r.add(&series{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := NewGauge()
	r.add(&series{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time. It is the mirroring hook for subsystems that already
// keep their own counters (db.Stats, a standalone Counter): the hot
// path pays nothing twice, the scrape pays one call.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.add(&series{name: name, help: help, kind: kindCounterFunc, counterFn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot
// time (see CounterFunc).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&series{name: name, help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// Collect registers fn to run at the start of every read of the
// func-backed series — once per WriteText, once per Value of such a
// series — before any of them is evaluated. Those reads are serialized,
// so series that read what fn prepared see one instant per read: a
// database's Stats mirrors read the one Stats() its collector took, and
// the counters of one scrape balance.
func (r *Registry) Collect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Value returns the current value of a counter or gauge series (the
// func-backed variants call through, after the collectors). Histograms
// report false; use HistogramFor.
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.Lock()
	s := r.byName[name]
	r.mu.Unlock()
	if s == nil {
		return 0, false
	}
	switch s.kind {
	case kindCounter:
		return float64(s.counter.Value()), true
	case kindGauge:
		return s.gauge.Value(), true
	case kindCounterFunc, kindGaugeFunc:
		return r.evaluate([]*series{s})[0], true
	default:
		return 0, false
	}
}

// evaluate runs the collectors and then reads every func-backed series
// of ss, under one hold of r.collect; the values of other series are
// left zero.
func (r *Registry) evaluate(ss []*series) []float64 {
	vals := make([]float64, len(ss))
	r.mu.Lock()
	collectors := r.collectors[:len(r.collectors):len(r.collectors)]
	r.mu.Unlock()
	r.collect.Lock()
	defer r.collect.Unlock()
	for _, fn := range collectors {
		fn()
	}
	for i, s := range ss {
		switch s.kind {
		case kindCounterFunc:
			vals[i] = float64(s.counterFn())
		case kindGaugeFunc:
			vals[i] = s.gaugeFn()
		}
	}
	return vals
}

// HistogramFor returns a registered histogram by name.
func (r *Registry) HistogramFor(name string) (*Histogram, bool) {
	r.mu.Lock()
	s := r.byName[name]
	r.mu.Unlock()
	if s == nil || s.kind != kindHistogram {
		return nil, false
	}
	return s.hist, true
}

// snapshot copies the series list so exposition can run without the
// registry lock: series handles are immutable after registration and
// their values are atomics or snapshot-time funcs, so holding mu
// while writing to a (possibly slow network) writer would be a
// block-under-lock hazard for nothing.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[:len(r.series):len(r.series)]
}
