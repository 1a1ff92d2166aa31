// Command stripbench is the repository's benchmark: one process hosts
// a seeded load generator and the live strip engine, drives the engine
// through its public API only, checks what it did, and prints what a
// user of the engine would see (end to end, untraced) or what each
// layer did (per layer, traced). BENCHMARK.json at the repository root
// is the contract it is run under; README.md explains every number.
//
//	bash bench/run.sh --workload feed_capacity --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --results a.jsonl
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/strip"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed uint64
	// The measured window is `seconds` intervals long; an interval is
	// one second everywhere but in the smoke test.
	seconds  int
	interval time.Duration
	trace    bool
	outDir   string
	// An untraced run builds and loads the engine `setups` times, each
	// with an initial load of `load` updates; setup_s is the median.
	// Smaller only in the smoke test.
	setups, load int
}

// lasting returns the length of n intervals.
func (c runConfig) lasting(n int) time.Duration { return time.Duration(n) * c.interval }

// warmup is the untimed lead-in of every phase: 2 s, shorter only for
// smoke runs of a few seconds.
func (c runConfig) warmup() time.Duration {
	if c.seconds >= 10 {
		return c.lasting(2)
	}
	return c.lasting(c.seconds) / 5
}

// An untraced run builds the engine setupRepeats times and loads each
// with setupLoad updates, enough that set-up is tens of milliseconds
// of the engine's own work on every workload.
const (
	setupRepeats = 9
	setupLoad    = 50000
)

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window in whole seconds (a traced run splits them between its phases)")
	trace := flag.Int("trace", 0, "1 runs the traced phases and prints the per-layer metrics")
	outDir := flag.String("out", "bench/out", "directory for trace files and the pipeline's WAL")
	results := flag.String("results", "", "append every run's result to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	spec := flag.String("spec", "BENCHMARK.json", "contract file -compare reads bounds from")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var run []*workload
	if *workloadName == "all" {
		run = workloads
	} else if w := findWorkload(*workloadName); w != nil {
		run = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, interval: time.Second, trace: *trace != 0, outDir: *outDir,
		setups: setupRepeats, load: setupLoad,
	}
	ok := true
	for _, w := range run {
		out, err := runWorkload(w, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if !cfg.trace {
			out.requireNonZero()
		}
		out.report(os.Stdout)
		if *results != "" {
			if err := out.appendTo(*results); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(out.driverLine())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		ok = ok && out.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stripbench:", err)
	os.Exit(2)
}

// metricOut is one reported metric.
type metricOut struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// runOutput is one run of one workload: a line of a results file.
type runOutput struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Digest    string               `json:"digest"`
	Correct   bool                 `json:"correct"`
	Problems  []string             `json:"problems,omitempty"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
	// FailedFrac is the issue's failed_frac, carried on untraced runs
	// too so -compare can refuse a change that loses more.
	FailedFrac float64 `json:"failed_frac"`
	TraceFile  string  `json:"trace_file,omitempty"`

	w     *workload
	order []metricDef
}

// runWorkload runs one workload untraced or traced and gathers the
// metrics of the matching table.
func runWorkload(w *workload, cfg runConfig) (*runOutput, error) {
	in := makeInputs(w, cfg.seed)
	var res *phaseResult
	var err error
	table := endToEnd
	if cfg.trace {
		table = perLayer
		res, err = runTraced(w, in, cfg)
	} else {
		res, err = runPhase(w, in, phaseOpts{
			policy: w.policy, warm: cfg.warmup(), measure: cfg.lasting(cfg.seconds), interval: cfg.interval,
			setups: cfg.setups, load: cfg.load, outDir: cfg.outDir,
		})
	}
	if err != nil {
		return nil, err
	}

	out := &runOutput{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Digest: in.digest,
		Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: map[string]metricOut{}, FailedFrac: res.m["failed_frac"],
		w: w, order: table,
	}
	for _, d := range table {
		v := res.m[d.name] // a layer the workload leaves idle did no work: 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("%s is not a number", d.name)
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit, Samples: res.n[d.name]}
	}
	if res.failed > 0 {
		res.problem("%d calls returned an unexpected error", res.failed)
	}
	if cfg.trace {
		if out.TraceFile, err = writeTrace(cfg.outDir, w.name, cfg.seed, res.spans); err != nil {
			return nil, err
		}
	}
	out.Problems = res.problems
	out.Correct = len(res.problems) == 0
	return out, nil
}

// requireNonZero marks an untraced run invalid if an end-to-end metric
// read zero: every workload is built so that each of them measures
// something. Only the smoke test, whose windows are a fraction of a
// second, is spared.
func (o *runOutput) requireNonZero() {
	for _, d := range o.order {
		if o.Metrics[d.name].Value == 0 {
			o.Problems = append(o.Problems, "end-to-end metric "+d.name+" is zero")
			o.Correct = false
		}
	}
}

// tracedPlan splits a traced run's seconds between the untraced
// reference phase, the traced phase and each of the policy reruns.
func tracedPlan(w *workload, seconds int) (ref, traced, rerun int) {
	if !w.policyReruns {
		ref = max(seconds*4/10, 1)
		return ref, max(seconds-ref, 1), 0
	}
	ref, rerun = max(seconds*3/10, 1), max(seconds/10, 1)
	return ref, max(seconds-ref-3*rerun, 1), rerun
}

// runTraced measures the per-layer metrics. It first runs the workload
// untraced for reference, then traced — spans at the benchmark's call
// sites, the sampler, the engine's own trace ring on — so the cost of
// tracing is the difference between two phases of one process; then,
// where the workload asks, briefly under the other policies.
func runTraced(w *workload, in *inputs, cfg runConfig) (*phaseResult, error) {
	refSecs, tracedSecs, rerunSecs := tracedPlan(w, cfg.seconds)
	opts := phaseOpts{policy: w.policy, warm: cfg.warmup(), measure: cfg.lasting(refSecs), interval: cfg.interval, load: cfg.load, outDir: cfg.outDir}
	ref, err := runPhase(w, in, opts)
	if err != nil {
		return nil, err
	}
	opts.traced, opts.measure = true, cfg.lasting(tracedSecs)
	res, err := runPhase(w, in, opts)
	if err != nil {
		return nil, err
	}
	// Every workload installs updates on probe views, and a slower
	// engine installs them later: staleness is the one yardstick of
	// tracing's cost that all four share.
	if base := ref.m["staleness_p50_us"]; base > 0 {
		res.set("obs.trace_overhead_frac", res.m["staleness_p50_us"]/base-1, res.n["staleness_p50_us"])
	}
	merge := func(r *phaseResult, label string) {
		for _, p := range r.problems {
			res.problem("%s: %s", label, p)
		}
		res.attempted += r.attempted
		res.failed += r.failed
	}
	merge(ref, "reference phase")

	if rerunSecs > 0 {
		opts.traced, opts.warm, opts.measure = false, cfg.warmup()/2, cfg.lasting(rerunSecs)
		for _, p := range []strip.Policy{strip.UpdatesFirst, strip.TransactionsFirst, strip.SplitUpdates} {
			opts.policy = p
			r, err := runPhase(w, in, opts)
			if err != nil {
				return nil, err
			}
			res.set("strip.loop.policy_"+p.String()+".txn_success_frac", r.m["txn_success_frac"], r.n["txn_success_frac"])
			res.set("strip.loop.policy_"+p.String()+".staleness_p50_us", r.m["staleness_p50_us"], r.n["staleness_p50_us"])
			merge(r, "policy "+p.String())
		}
	}
	return res, nil
}

// driverLine is the last line of a run: exactly the keys the driver's
// contract names.
func (o *runOutput) driverLine() any {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]m{}
	for name, v := range o.Metrics {
		metrics[name] = m{v.Value, v.Unit}
	}
	return struct {
		Correct   bool         `json:"correct"`
		Attempted uint64       `json:"attempted"`
		Failed    uint64       `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, metrics}
}

func (o *runOutput) appendTo(path string) error {
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run for a person: what was run, every metric by
// name with its unit and the samples it rests on, and the verdict of
// the correctness checks.
func (o *runOutput) report(f *os.File) {
	w := o.w
	fmt.Fprintf(f, "stripbench %s seed=%d seconds=%d trace=%v digest=%s gomaxprocs=%d nproc=%d\n",
		w.name, o.Seed, o.Seconds, o.Trace, o.Digest, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(f, "  %s\n  busy: %s\n", w.describe(), w.bottleneck)
	fmt.Fprintf(f, "  %-42s %16s  %-5s %10s\n", "metric", "value", "unit", "samples")
	for _, d := range o.order {
		m := o.Metrics[d.name]
		fmt.Fprintf(f, "  %-42s %16.4f  %-5s %10d\n", d.name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(f, "  %-42s %16.6f  %-5s\n", "failed_frac (lost or missed / offered+due)", o.FailedFrac, "frac")
	if o.TraceFile != "" {
		fmt.Fprintf(f, "  spans: %s\n", o.TraceFile)
	}
	if o.Correct {
		fmt.Fprintf(f, "  checks: ok (ledger balanced, views and probes consistent; %d offered or due, %d errors)\n", o.Attempted, o.Failed)
	} else {
		fmt.Fprintf(f, "  checks: FAILED\n    %s\n", strings.Join(o.Problems, "\n    "))
	}
}

// describe states the workload's constants in one line.
func (w *workload) describe() string {
	crit := "UU"
	if w.maxAge > 0 {
		crit = "MA " + w.maxAge.String()
	}
	var feed string
	switch {
	case w.inflight > 0:
		feed = fmt.Sprintf("closed loop <=%d in flight", w.inflight)
	case w.delayMean > 0:
		feed = fmt.Sprintf("open loop %d/s in 1 ms ticks, generated exp(%v) before due", w.feedRate, w.delayMean)
	default:
		feed = fmt.Sprintf("open loop %d/s in 1 ms ticks", w.feedRate)
	}
	keys := "uniform"
	if w.zipfFeed {
		keys = "Zipf(1.0)"
	}
	path := "in-process ApplyUpdate"
	txns := fmt.Sprintf("txns open loop %d/s, %d reads, %d submitters", w.txnRate, w.reads, w.submitters)
	if w.pipeline {
		path = "TCP lines -> Serve, WAL (Sync after every commit), 1 replica"
		txns = fmt.Sprintf("1 client, open loop %d/s: %d reads, %d sets, Sync", w.txnRate, w.reads, w.sets)
	}
	return fmt.Sprintf("policy %s, %s, %d views (%d derived), feed %s, %s keys, %s; %s",
		w.policy, crit, w.views, w.derived, feed, keys, path, txns)
}
