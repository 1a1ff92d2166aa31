package sched

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Params is the full model parameter set (Tables 1-3).
	Params model.Params
	// Policy is the scheduling algorithm.
	Policy Policy
	// Seed makes the run deterministic; equal seeds and configs give
	// bit-identical results.
	Seed uint64
	// Duration is the simulated horizon in seconds (1000 s per data
	// point in the paper).
	Duration float64
	// Tracer optionally receives every scheduling event.
	Tracer Tracer
	// UpdateTrace, when non-nil, replays a recorded update stream
	// (see workload.TraceUpdateSource for the format) instead of the
	// synthetic source.
	UpdateTrace io.Reader
}

// run is one simulation in progress: the event kernel, the controller
// and the metric sinks it reports to.
type run struct {
	cfg     Config
	s       *sim.Simulator
	c       *Controller
	tracker trackerWithGen
	col     *metrics.Collector
}

// newRun validates the configuration and wires a controller to a
// fresh simulator; the caller schedules the arrivals.
func newRun(cfg Config) (*run, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid parameters: %w", err)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("sched: duration %v must be positive", cfg.Duration)
	}
	r := &run{cfg: cfg, s: sim.New()}
	p := &r.cfg.Params
	r.tracker = metrics.NewTracker(p).(trackerWithGen)
	r.col = metrics.NewCollector(p)
	r.c = newController(r.s, p, cfg.Policy, r.tracker, r.col, uint64(cfg.Seed*2654435761+1))
	r.c.tracer = cfg.Tracer
	return r, nil
}

// finish runs the simulation to the horizon and collects the metrics.
func (r *run) finish() metrics.Result {
	end := r.cfg.Duration
	r.s.Run(end)
	r.c.finish(end)
	r.tracker.Finish(end)
	r.col.Finish(end)
	return r.col.Result(r.tracker)
}

// Replay executes a scripted simulation: the given updates and
// transactions arrive at their ArrivalTime instead of the synthetic
// sources' (cfg.Seed only seeds the queue balancing). With a Tracer it
// is the oracle the live engine's scheduler is checked against: the
// same script, the same policy table, simulated time instead of wall
// time.
func Replay(cfg Config, updates []*model.Update, txns []*model.Txn) (metrics.Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return metrics.Result{}, err
	}
	for _, u := range updates {
		r.s.At(u.ArrivalTime, func() { r.c.onUpdateArrival(u) })
	}
	for _, txn := range txns {
		r.s.At(txn.ArrivalTime, func() { r.c.onTxnArrival(txn) })
	}
	return r.finish(), nil
}

// Run executes one complete simulation and returns its metrics.
func Run(cfg Config) (metrics.Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return metrics.Result{}, err
	}
	p, s, c := &r.cfg.Params, r.s, r.c

	root := stats.NewRNG(cfg.Seed, 0x5DEECE66D)
	updateRNG := root.Split()
	txnRNG := root.Split()

	// The update source is the Poisson stream of §5.1 by default, or
	// the §2 periodic per-object refresh model when configured.
	var nextUpdate func() *model.Update
	var traceSrc *workload.TraceUpdateSource
	switch {
	case cfg.UpdateTrace != nil:
		traceSrc = workload.NewTraceUpdateSource(p, cfg.UpdateTrace)
		nextUpdate = traceSrc.Next
	case p.PeriodicPeriod > 0:
		src := workload.NewPeriodicUpdateSource(p, p.PeriodicPeriod, updateRNG)
		nextUpdate = src.Next
	case p.BurstFactor > 1:
		quiet, burst := p.BurstQuietMean, p.BurstOnMean
		if quiet <= 0 {
			quiet = 4
		}
		if burst <= 0 {
			burst = 1
		}
		src := workload.NewBurstyUpdateGenerator(p, updateRNG, p.BurstFactor, quiet, burst)
		nextUpdate = src.Next
	default:
		ug := workload.NewUpdateGenerator(p, updateRNG)
		nextUpdate = ug.Next
	}
	var scheduleUpdate func()
	scheduleUpdate = func() {
		u := nextUpdate()
		if u == nil || u.ArrivalTime > cfg.Duration {
			return
		}
		s.At(u.ArrivalTime, func() {
			c.onUpdateArrival(u)
			scheduleUpdate()
		})
	}
	scheduleUpdate()

	tg := workload.NewTxnGenerator(p, txnRNG)
	var scheduleTxn func()
	scheduleTxn = func() {
		txn := tg.Next()
		if txn == nil || txn.ArrivalTime > cfg.Duration {
			return
		}
		s.At(txn.ArrivalTime, func() {
			c.onTxnArrival(txn)
			scheduleTxn()
		})
	}
	scheduleTxn()

	res := r.finish()
	if traceSrc != nil {
		if err := traceSrc.Err(); err != nil {
			return metrics.Result{}, err
		}
	}
	return res, nil
}

// MustRun is Run for tests and examples where the configuration is
// known to be valid; it panics on error.
func MustRun(cfg Config) metrics.Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
