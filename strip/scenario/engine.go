package scenario

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/strip"
	"repro/strip/fault"
)

// Options adjusts one Run without editing the scenario file.
type Options struct {
	// Seed, when non-zero, overrides the scenario's seed (the -seed
	// flag reproducing a failed run).
	Seed uint64
	// Logf receives progress diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Report is the outcome of one Run.
type Report struct {
	Name   string
	Seed   uint64
	Passed bool
	// Transcript is the seeded event log: plan lines plus one verdict
	// line per assertion. The same scenario and seed always produce the
	// same bytes — measured values never appear, only the plan and the
	// pass/fail verdicts.
	Transcript string
	// Failures lists failed assertions and runtime errors, with the
	// measured values the transcript deliberately omits.
	Failures []string
	// Details carries informational measurements for the log.
	Details []string
	// FaultsInjected totals the faults every injector actually landed.
	FaultsInjected uint64
}

// plannedUpdate is one update of the precomputed stream.
type plannedUpdate struct {
	at  float64 // arrival offset from run start, seconds
	obj string
	gen float64 // generation offset (may be negative)
	val float64
}

// plannedTxn is one general-data write of the precomputed stream.
type plannedTxn struct {
	at  float64
	key string
	val float64
}

// objectSpec is one declared view object.
type objectSpec struct {
	name string
	imp  strip.Importance
}

// fwin is a half-open offset window relative to run start.
type fwin struct{ from, to time.Duration }

func (w fwin) contains(d time.Duration) bool { return d >= w.from && d < w.to }

// chaosSpec is the planned chaos for one link target.
type chaosSpec struct {
	cfg  fault.ConnChaos // probabilities, delay and base seed; no gate yet
	wins []fwin
}

// walPair ties a wal window's on and off events to one schedule and,
// once the on event fires, to the node it resolved to.
type walPair struct {
	sched *fault.Schedule
	node  *runNode
}

// planEvent is one executor action.
type planEvent struct {
	at   float64
	kind string // wal_on | wal_off | kill | restart | checkpoint
	node string // target selector
	pair *walPair
	ops  int // kill: the checkpoint operation its filesystem crashes at
}

// plan is everything deterministic about a run: the full update and
// transaction timelines, the fault windows, the executor schedule and
// the transcript's plan lines. Building it up front is what makes the
// transcript a pure function of (file, seed).
type plan struct {
	seed     uint64
	objects  []objectSpec
	updates  []plannedUpdate
	txns     []plannedTxn
	partWins []fault.Window
	chaos    map[string]*chaosSpec
	events   []*planEvent
	scheds   []*fault.Schedule
	endAt    float64
	lines    []string
}

// subSeed derives a stream-specific seed so independent injectors
// never share a fault sequence.
func subSeed(seed uint64, stream int) uint64 {
	return seed + uint64(stream+1)*0x9E3779B97F4A7C15
}

// buildPlan precomputes the run.
func buildPlan(sc *Scenario, seed uint64) (*plan, error) {
	pl := &plan{seed: seed, chaos: map[string]*chaosSpec{}}
	w := &sc.Workload

	for i := 0; i < w.NLow+w.NHigh; i++ {
		imp := strip.High
		if i < w.NLow {
			imp = strip.Low
		}
		pl.objects = append(pl.objects, objectSpec{name: fmt.Sprintf("obj/%03d", i), imp: imp})
	}

	root := stats.NewRNG(seed, 0x5DEECE66D)
	updRNG := root.Split()
	txnRNG := root.Split()
	phaseRNG := root.Split()

	params := model.DefaultParams()
	params.NLow, params.NHigh = w.NLow, w.NHigh
	params.UpdateRate = w.Updates.Rate
	params.MeanUpdateAge = w.MeanAge
	phases, err := buildPhases(&w.Updates, phaseRNG)
	if err != nil {
		return nil, err
	}
	gen := workload.NewPhasedUpdateGenerator(&params, updRNG, phases)
	for u := gen.Next(); u != nil; u = gen.Next() {
		pl.updates = append(pl.updates, plannedUpdate{
			at:  u.ArrivalTime,
			obj: pl.objects[int(u.Object)].name,
			gen: u.GenTime,
			val: float64(u.Seq) * 0.25,
		})
	}

	if w.Txns.Rate > 0 {
		t, i := 0.0, 0
		for {
			t += txnRNG.Exponential(1 / w.Txns.Rate)
			if t >= w.Txns.Duration {
				break
			}
			pl.txns = append(pl.txns, plannedTxn{
				at:  t,
				key: fmt.Sprintf("gen/k%02d", i%16),
				val: float64(i),
			})
			i++
		}
	}

	if err := pl.planFaults(sc); err != nil {
		return nil, err
	}

	pl.endAt = w.Updates.Duration
	if w.Txns.Duration > pl.endAt {
		pl.endAt = w.Txns.Duration
	}
	for _, win := range pl.partWins {
		pl.endAt = math.Max(pl.endAt, win.End.Seconds())
	}
	for _, cs := range pl.chaos {
		for _, win := range cs.wins {
			pl.endAt = math.Max(pl.endAt, win.to.Seconds())
		}
	}
	for _, ev := range pl.events {
		pl.endAt = math.Max(pl.endAt, ev.at)
	}
	pl.endAt += 0.05

	pl.render(sc)
	return pl, nil
}

// buildPhases turns a declared shape into a piecewise-constant rate
// schedule. The bursty shape draws its phase boundaries from its own
// RNG split, so the update stream's draws stay aligned across shapes.
func buildPhases(u *UpdateLoad, rng *stats.RNG) ([]workload.PhaseSpec, error) {
	switch u.Shape {
	case "constant":
		return []workload.PhaseSpec{{Rate: u.Rate, Duration: u.Duration}}, nil
	case "flash_crowd":
		return workload.FlashCrowdPhases(u.Rate, u.SpikeFactor, u.Duration, u.SpikeAt, u.SpikeDuration), nil
	case "diurnal":
		return workload.DiurnalPhases(u.Rate, u.PeakFactor, u.Duration, u.Periods, u.Steps), nil
	case "bursty":
		quiet, burst := u.MeanQuiet, u.MeanBurst
		if quiet <= 0 {
			quiet = 0.3
		}
		if burst <= 0 {
			burst = 0.1
		}
		var out []workload.PhaseSpec
		t := 0.0
		for t < u.Duration {
			d := math.Min(rng.Exponential(quiet), u.Duration-t)
			if d > 0 {
				out = append(out, workload.PhaseSpec{Rate: u.Rate, Duration: d})
				t += d
			}
			if t >= u.Duration {
				break
			}
			d = math.Min(rng.Exponential(burst), u.Duration-t)
			if d > 0 {
				out = append(out, workload.PhaseSpec{Rate: u.Rate * u.BurstFactor, Duration: d})
				t += d
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("scenario: unknown shape %q", u.Shape)
	}
}

// planFaults folds the declared faults into partition windows, chaos
// window specs and executor events.
func (pl *plan) planFaults(sc *Scenario) error {
	for i, f := range sc.Faults {
		at := time.Duration(f.At * float64(time.Second))
		dur := time.Duration(f.Duration * float64(time.Second))
		switch f.Kind {
		case "partition":
			if f.Windows > 0 {
				for _, w := range fault.SeededWindows(subSeed(pl.seed, i), f.Windows, dur,
					time.Duration(f.MinMS)*time.Millisecond, time.Duration(f.MaxMS)*time.Millisecond) {
					end := w.End
					if end > dur {
						end = dur
					}
					pl.partWins = append(pl.partWins, fault.Window{Start: at + w.Start, End: at + end})
				}
			} else {
				pl.partWins = append(pl.partWins, fault.Window{Start: at, End: at + dur})
			}
		case "chaos":
			target := f.Node
			if sc.Topology.Mode == "elect" {
				target = "all"
			}
			cs := pl.chaos[target]
			if cs == nil {
				cs = &chaosSpec{cfg: fault.ConnChaos{
					Seed:     subSeed(pl.seed, i),
					Reset:    f.Reset,
					Partial:  f.Partial,
					Flip:     f.Flip,
					MaxDelay: time.Duration(f.MaxDelayUS) * time.Microsecond,
				}}
				pl.chaos[target] = cs
			}
			cs.wins = append(cs.wins, fwin{from: at, to: at + dur})
		case "wal":
			pair := &walPair{sched: fault.NewSchedule(fault.ScheduleConfig{
				Seed:       subSeed(pl.seed, i),
				Match:      "wal",
				WriteErr:   f.WriteErr,
				ShortWrite: f.ShortWrite,
				SyncErr:    f.SyncErr,
			})}
			pl.scheds = append(pl.scheds, pair.sched)
			pl.events = append(pl.events,
				&planEvent{at: f.At, kind: "wal_on", node: f.Node, pair: pair},
				&planEvent{at: f.At + f.Duration, kind: "wal_off", node: f.Node, pair: pair})
		case "kill", "restart", "checkpoint":
			pl.events = append(pl.events, &planEvent{at: f.At, kind: f.Kind, node: f.Node, ops: f.CheckpointOps})
		}
	}
	// Events fire in time order; the fault list is already sorted by
	// At, but a wal_off can land after a later fault's At.
	for i := 1; i < len(pl.events); i++ {
		for j := i; j > 0 && pl.events[j].at < pl.events[j-1].at; j-- {
			pl.events[j], pl.events[j-1] = pl.events[j-1], pl.events[j]
		}
	}
	return nil
}

// workloadHash fingerprints the planned update stream, proving in the
// transcript that two runs drew identical workloads.
func (pl *plan) workloadHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range pl.updates {
		u := &pl.updates[i]
		put(math.Float64bits(u.at))
		put(math.Float64bits(u.gen))
		put(math.Float64bits(u.val))
		h.Write([]byte(u.obj))
	}
	return h.Sum64()
}

// render produces the transcript's plan lines.
func (pl *plan) render(sc *Scenario) {
	add := func(format string, args ...any) {
		pl.lines = append(pl.lines, fmt.Sprintf(format, args...))
	}
	add("scenario %s seed=%d", sc.Name, pl.seed)
	add("topology %s fs=%s nodes=%d", sc.Topology.Mode, sc.Topology.FS, len(sc.Topology.Nodes))
	for _, n := range sc.Topology.Nodes {
		wal := "on"
		if !n.WAL {
			wal = "off"
		}
		if n.Upstream != "" {
			add("node %s upstream=%s wal=%s", n.Name, n.Upstream, wal)
		} else {
			add("node %s wal=%s", n.Name, wal)
		}
	}
	u := &sc.Workload.Updates
	add("workload updates shape=%s rate=%g duration=%.3fs count=%d hash=%016x",
		u.Shape, u.Rate, u.Duration, len(pl.updates), pl.workloadHash())
	if sc.Workload.Txns.Rate > 0 {
		add("workload txns rate=%g duration=%.3fs count=%d",
			sc.Workload.Txns.Rate, sc.Workload.Txns.Duration, len(pl.txns))
	}
	for _, f := range sc.Faults {
		var b strings.Builder
		fmt.Fprintf(&b, "fault at=%.3fs %s", f.At, f.Kind)
		if f.Node != "" {
			fmt.Fprintf(&b, " node=%s", f.Node)
		}
		if f.Duration > 0 {
			fmt.Fprintf(&b, " duration=%.3fs", f.Duration)
		}
		switch f.Kind {
		case "chaos":
			fmt.Fprintf(&b, " reset=%g partial=%g flip=%g max_delay_us=%d",
				f.Reset, f.Partial, f.Flip, f.MaxDelayUS)
		case "wal":
			fmt.Fprintf(&b, " write_err=%g short_write=%g sync_err=%g",
				f.WriteErr, f.ShortWrite, f.SyncErr)
		case "partition":
			if f.Windows > 0 {
				fmt.Fprintf(&b, " windows=%d", f.Windows)
			}
		case "kill":
			if f.CheckpointOps > 0 {
				fmt.Fprintf(&b, " checkpoint_ops=%d", f.CheckpointOps)
			}
		}
		pl.lines = append(pl.lines, b.String())
	}
	if len(pl.partWins) > 0 {
		var b strings.Builder
		b.WriteString("partition windows")
		for _, w := range pl.partWins {
			fmt.Fprintf(&b, " [%.3fs,%.3fs)", w.Start.Seconds(), w.End.Seconds())
		}
		pl.lines = append(pl.lines, b.String())
	}
}

// Run executes one scenario in real time and reports the verdicts.
// Runtime infrastructure errors (a listener that cannot open) return
// an error; assertion failures return a Report with Passed false.
func Run(sc *Scenario, opt Options) (*Report, error) {
	seed := sc.Seed
	if opt.Seed != 0 {
		seed = opt.Seed
	}
	pl, err := buildPlan(sc, seed)
	if err != nil {
		return nil, err
	}
	rep := &Report{Name: sc.Name, Seed: seed}

	r := newRig(sc, pl, opt.Logf)
	defer r.teardown()
	if err := r.boot(); err != nil {
		return nil, err
	}
	r.drive()
	r.settle()

	rep.FaultsInjected = r.faultsTotal()
	rep.Details = append(rep.Details, r.details()...)

	lines := append([]string(nil), pl.lines...)
	for _, res := range evaluate(sc, r) {
		verdict := "PASS"
		if !res.ok {
			verdict = "FAIL"
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s", res.kind, res.detail))
		} else if res.detail != "" {
			rep.Details = append(rep.Details, fmt.Sprintf("%s: %s", res.kind, res.detail))
		}
		lines = append(lines, fmt.Sprintf("assert %s %s", res.kind, verdict))
	}
	rep.Passed = len(rep.Failures) == 0
	verdict := "PASS"
	if !rep.Passed {
		verdict = "FAIL"
	}
	lines = append(lines, "result "+verdict)
	rep.Transcript = strings.Join(lines, "\n") + "\n"
	return rep, nil
}

// ReproCommand renders the command line that reruns a scenario with
// the seed that produced a report.
func ReproCommand(path string, seed uint64) string {
	return fmt.Sprintf("go run ./cmd/stripsim -scenario %s -seed %d", path, seed)
}
