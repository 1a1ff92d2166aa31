// Command stripsim runs one simulation of the paper's model and
// prints its metrics.
//
// Usage:
//
//	stripsim -policy OD -duration 1000 -txnrate 10
//	stripsim -policy TF -staleness uu -onstale abort -json
//
// All parameters default to the paper's baseline (Tables 1-3).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stripsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stripsim", flag.ContinueOnError)
	p := model.DefaultParams()

	policyName := fs.String("policy", "OD", "scheduling algorithm: UF, TF, SU, OD or FC")
	duration := fs.Float64("duration", 1000, "simulated seconds")
	seed := fs.Uint64("seed", 1, "random seed")
	staleness := fs.String("staleness", "ma", "staleness criterion: ma, uu, uustrict or mauu")
	onStale := fs.String("onstale", "ignore", "action on stale read: ignore or abort")
	order := fs.String("order", "fifo", "update queue discipline: fifo or lifo")
	jsonOut := fs.Bool("json", false, "emit the result as JSON")
	replay := fs.String("replay", "", "replay a recorded update trace file instead of the synthetic stream")
	record := fs.String("record", "", "write the synthetic update stream to this trace file and exit (no simulation)")
	scenarioPath := fs.String("scenario", "", "run a declarative scenario file, or every *.yaml in a directory (see scenarios/)")
	listScenarios := fs.Bool("list", false, "with -scenario: list the scenarios instead of running them")
	transcriptDir := fs.String("transcript", "", "with -scenario: write each run's seeded transcript into this directory")

	fs.Float64Var(&p.TxnRate, "txnrate", p.TxnRate, "transaction arrival rate lambda_t (1/s)")
	fs.Float64Var(&p.UpdateRate, "updaterate", p.UpdateRate, "update arrival rate lambda_u (1/s)")
	fs.Float64Var(&p.MaxAgeDelta, "delta", p.MaxAgeDelta, "maximum data age Delta (s, MA)")
	fs.Float64Var(&p.PView, "pview", p.PView, "fraction of computation before view reads")
	fs.Float64Var(&p.XUpdate, "xupdate", p.XUpdate, "instructions per update install")
	fs.Float64Var(&p.XQueue, "xqueue", p.XQueue, "queue op cost constant (instr)")
	fs.Float64Var(&p.XScan, "xscan", p.XScan, "queue scan cost per element (instr)")
	fs.Float64Var(&p.XSwitch, "xswitch", p.XSwitch, "context switch cost (instr)")
	fs.IntVar(&p.NLow, "nlow", p.NLow, "low-importance view objects")
	fs.IntVar(&p.NHigh, "nhigh", p.NHigh, "high-importance view objects")
	fs.BoolVar(&p.CoalesceQueue, "coalesce", false, "keep at most the newest queued update per object (coalescing queue)")
	fs.BoolVar(&p.PartitionedQueues, "partition", false, "drain high-importance updates first")
	fs.Float64Var(&p.UpdateCPUFraction, "fraction", p.UpdateCPUFraction, "update CPU share (FC policy)")
	fs.Float64Var(&p.MetricsWarmup, "warmup", 0, "seconds excluded from metrics")
	fs.Float64Var(&p.PeriodicPeriod, "periodic", 0, "periodic update stream: refresh period per object (0 = Poisson stream)")
	fs.Float64Var(&p.BurstFactor, "burst", 0, "bursty update stream: burst-to-quiet rate ratio (0 = smooth Poisson)")

	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scenarioPath != "" {
		// The scenario file carries its own seed; -seed overrides it
		// only when passed explicitly (the repro command line does).
		var seedOverride uint64
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedOverride = *seed
			}
		})
		return runScenarios(out, *scenarioPath, seedOverride, *listScenarios, *transcriptDir)
	}

	policy, err := sched.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	switch *staleness {
	case "ma":
		p.Staleness = model.MaxAge
	case "uu":
		p.Staleness = model.UnappliedUpdate
	case "uustrict":
		p.Staleness = model.UnappliedUpdateStrict
	case "mauu":
		p.Staleness = model.CombinedMAUU
	default:
		return fmt.Errorf("unknown staleness criterion %q", *staleness)
	}
	switch *onStale {
	case "ignore":
		p.OnStale = model.StaleIgnore
	case "abort":
		p.OnStale = model.StaleAbort
	default:
		return fmt.Errorf("unknown stale action %q", *onStale)
	}
	switch *order {
	case "fifo":
		p.Order = model.FIFO
	case "lifo":
		p.Order = model.LIFO
	default:
		return fmt.Errorf("unknown queue order %q", *order)
	}

	if *record != "" {
		return recordTrace(*record, &p, *seed, *duration)
	}

	cfg := sched.Config{
		Params:   p,
		Policy:   policy,
		Seed:     *seed,
		Duration: *duration,
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.UpdateTrace = f
	}
	r, err := sched.Run(cfg)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	printReport(out, policy, &p, r)
	return nil
}

// recordTrace writes the synthetic update stream (derived exactly as
// a simulation with the same seed would) to a trace file.
func recordTrace(path string, p *model.Params, seed uint64, duration float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	root := stats.NewRNG(seed, 0x5DEECE66D)
	gen := workload.NewUpdateGenerator(p, root.Split())
	n := 0
	for {
		u := gen.Next()
		if u == nil || u.ArrivalTime > duration {
			break
		}
		if _, err := fmt.Fprintln(w, workload.WriteTraceLine(u)); err != nil {
			f.Close()
			return err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d updates to %s\n", n, path)
	return nil
}

func printReport(out io.Writer, policy sched.Policy, p *model.Params, r metrics.Result) {
	fmt.Fprintf(out, "policy %s, %s staleness, on-stale %s, %s order, %.0f s simulated\n",
		policy, p.Staleness, p.OnStale, p.Order, r.Duration)
	fmt.Fprintf(out, "  lambda_t=%.0f/s  lambda_u=%.0f/s  Delta=%.1fs\n\n",
		p.TxnRate, p.UpdateRate, p.MaxAgeDelta)

	fmt.Fprintf(out, "CPU:            rho_t=%.3f  rho_u=%.3f  total=%.3f\n",
		r.RhoTxn, r.RhoUpdate, r.RhoTxn+r.RhoUpdate)
	fmt.Fprintf(out, "transactions:   arrived=%d resolved=%d committed=%d\n",
		r.TxnsArrived, r.TxnsResolved, r.TxnsCommitted)
	fmt.Fprintf(out, "                aborted: deadline=%d stale=%d\n",
		r.TxnsAbortedDeadline, r.TxnsAbortedStale)
	fmt.Fprintf(out, "  pMD=%.4f  psuccess=%.4f  psuc|nontardy=%.4f  AV=%.3f/s\n",
		r.PMissedDeadline, r.PSuccess, r.PSuccessGivenNonTardy, r.AvgValuePerSecond)
	fmt.Fprintf(out, "staleness:      fold_l=%.4f  fold_h=%.4f\n", r.FOldLow, r.FOldHigh)
	fmt.Fprintf(out, "updates:        arrived=%d installed=%d skipped=%d expired=%d\n",
		r.UpdatesArrived, r.UpdatesInstalled, r.UpdatesSkippedUnworthy, r.UpdatesExpired)
	fmt.Fprintf(out, "                dropped: queue=%d os=%d  mean queue len=%.1f\n",
		r.UpdatesOverflowDropped, r.UpdatesOSDropped, r.MeanQueueLen)
}
