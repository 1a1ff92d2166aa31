package scenario

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// Scenario is one declared robustness run: a topology to build, a
// workload to drive through it, a fault schedule to inflict, and the
// assertions that must hold at the end. Everything observable about a
// run is a function of the file plus one seed.
type Scenario struct {
	Name        string
	Description string
	Seed        uint64
	Topology    Topology
	Workload    Workload
	Faults      []Fault
	Assertions  []Assertion
}

// Topology declares the fleet.
type Topology struct {
	// Mode is "static" (a fixed primary + replica tree, roles declared
	// by Upstream edges) or "elect" (every node is an elect peer; roles
	// are decided by consensus and may move during the run).
	Mode string
	// FS is "mem" (fault.MemFS — crashable, injectable; the default)
	// or "os" (real files under a temporary directory; no kill/restart
	// or WAL fault events possible).
	FS    string
	Nodes []NodeSpec
}

// NodeSpec declares one node.
type NodeSpec struct {
	Name string
	// Upstream names the node this one replicates from (static mode).
	// Exactly one node — the primary — has none.
	Upstream string
	// WAL enables the write-ahead log (default true).
	WAL bool
}

// Workload declares the load: the paper's object model plus a temporal
// shape for the update stream and a Poisson transaction stream of
// general-data writes (the WAL/durability surface).
type Workload struct {
	// NLow and NHigh size the two importance partitions (defaults 8/8).
	NLow, NHigh int
	// MeanAge is the mean network age of updates in seconds (default
	// 0.05), the paper's exponential age model.
	MeanAge float64
	Updates UpdateLoad
	Txns    TxnLoad
}

// UpdateLoad declares the update stream's shape.
type UpdateLoad struct {
	// Shape is "constant", "bursty", "flash_crowd" or "diurnal".
	Shape string
	// Rate is the (base or long-run average) arrival rate in 1/s.
	Rate float64
	// Duration is the stream length in seconds of wall time.
	Duration float64

	// bursty: Markov-modulated phases.
	BurstFactor          float64
	MeanQuiet, MeanBurst float64

	// flash_crowd: Rate*SpikeFactor for SpikeDuration starting at SpikeAt.
	SpikeAt, SpikeDuration, SpikeFactor float64

	// diurnal: Rate..Rate*PeakFactor sinusoid, Periods cycles of Steps
	// segments each.
	PeakFactor float64
	Periods    int
	Steps      int
}

// TxnLoad declares the transaction stream: Poisson arrivals of
// general-data writes committed through Exec.
type TxnLoad struct {
	Rate float64
	// Duration defaults to the update stream's.
	Duration float64
}

// Fault is one scheduled fault event, At seconds into the run.
type Fault struct {
	At   float64
	Kind string // chaos | partition | wal | kill | restart | checkpoint
	// Node is the target. Static mode: a declared node name (for
	// "chaos", the link from Node to its upstream; for "wal",
	// "checkpoint", "kill", "restart", the node itself). Elect mode:
	// "leader" (resolved when the event fires), "killed" (the most
	// recently killed node), or a declared name. "chaos" in elect mode
	// takes "all" (every replication and election dial).
	Node string
	// Duration bounds window faults (chaos, partition, wal) in seconds.
	Duration float64

	// chaos: per-operation probabilities and injected latency, as in
	// fault.ConnChaos.
	Reset, Partial, Flip float64
	MaxDelayUS           int

	// partition: Windows > 0 derives that many seeded blackhole
	// sub-windows of [MinMS, MaxMS) ms inside [At, At+Duration); 0
	// blackholes the whole interval.
	Windows      int
	MinMS, MaxMS int

	// wal: seeded filesystem fault probabilities applied to WAL files
	// (fault.ScheduleConfig) for the window.
	WriteErr, ShortWrite, SyncErr float64

	// kill: CheckpointOps > 0 kills the node mid-checkpoint — its
	// filesystem crashes at the checkpoint's CheckpointOps-th operation.
	CheckpointOps int
}

// Assertion is one end-of-run check.
type Assertion struct {
	// Kind is one of: convergence, progress, staleness_p99,
	// staleness_max, uu_p99, faults_injected, reconnects, durability,
	// one_winner, degraded, rebootstrap.
	Kind string
	// Min and Max bound the measured value where the kind takes
	// bounds; the has flags record which were declared.
	Min, Max       float64
	HasMin, HasMax bool
}

// Load reads and decodes a scenario file.
func Load(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Decode(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Decode parses and validates one scenario document.
func Decode(src []byte) (*Scenario, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	sc, err := decodeScenario(root)
	if err != nil {
		return nil, err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func decodeScenario(root *node) (*Scenario, error) {
	if err := root.mapping("scenario", "name", "description", "seed",
		"topology", "workload", "faults", "assertions"); err != nil {
		return nil, err
	}
	sc := &Scenario{Seed: 1}
	var err error
	if n := root.get("name"); n != nil {
		if sc.Name, err = n.str("name"); err != nil {
			return nil, err
		}
	}
	if n := root.get("description"); n != nil {
		if sc.Description, err = n.str("description"); err != nil {
			return nil, err
		}
	}
	if n := root.get("seed"); n != nil {
		if sc.Seed, err = n.uint64v("seed"); err != nil {
			return nil, err
		}
	}
	if err := decodeTopology(root.get("topology"), &sc.Topology); err != nil {
		return nil, err
	}
	if err := decodeWorkload(root.get("workload"), &sc.Workload); err != nil {
		return nil, err
	}
	if n := root.get("faults"); n != nil {
		if sc.Faults, err = decodeFaults(n); err != nil {
			return nil, err
		}
	}
	if n := root.get("assertions"); n != nil {
		if sc.Assertions, err = decodeAssertions(n); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

func decodeTopology(n *node, t *Topology) error {
	if err := n.mapping("topology", "mode", "fs", "nodes"); err != nil {
		return err
	}
	t.Mode, t.FS = "static", "mem"
	var err error
	if v := n.get("mode"); v != nil {
		if t.Mode, err = v.str("topology.mode"); err != nil {
			return err
		}
	}
	if v := n.get("fs"); v != nil {
		if t.FS, err = v.str("topology.fs"); err != nil {
			return err
		}
	}
	items, err := n.get("nodes").sequence("topology.nodes")
	if err != nil {
		return err
	}
	for i, item := range items {
		path := fmt.Sprintf("topology.nodes[%d]", i)
		if err := item.mapping(path, "name", "upstream", "wal"); err != nil {
			return err
		}
		spec := NodeSpec{WAL: true}
		if spec.Name, err = item.get("name").str(path + ".name"); err != nil {
			return err
		}
		if v := item.get("upstream"); v != nil {
			if spec.Upstream, err = v.str(path + ".upstream"); err != nil {
				return err
			}
		}
		if v := item.get("wal"); v != nil {
			if spec.WAL, err = v.boolean(path + ".wal"); err != nil {
				return err
			}
		}
		t.Nodes = append(t.Nodes, spec)
	}
	return nil
}

func decodeWorkload(n *node, w *Workload) error {
	if err := n.mapping("workload", "objects", "mean_age", "updates", "txns"); err != nil {
		return err
	}
	w.NLow, w.NHigh, w.MeanAge = 8, 8, 0.05
	var err error
	if o := n.get("objects"); o != nil {
		if err := o.mapping("workload.objects", "low", "high"); err != nil {
			return err
		}
		if v := o.get("low"); v != nil {
			if w.NLow, err = v.integer("workload.objects.low"); err != nil {
				return err
			}
		}
		if v := o.get("high"); v != nil {
			if w.NHigh, err = v.integer("workload.objects.high"); err != nil {
				return err
			}
		}
	}
	if v := n.get("mean_age"); v != nil {
		if w.MeanAge, err = v.float("workload.mean_age"); err != nil {
			return err
		}
	}
	u := n.get("updates")
	if err := u.mapping("workload.updates", "shape", "rate", "duration",
		"burst_factor", "mean_quiet", "mean_burst",
		"spike_at", "spike_duration", "spike_factor",
		"peak_factor", "periods", "steps"); err != nil {
		return err
	}
	w.Updates.Shape = "constant"
	for _, f := range []struct {
		key string
		dst *float64
	}{
		{"rate", &w.Updates.Rate}, {"duration", &w.Updates.Duration},
		{"burst_factor", &w.Updates.BurstFactor},
		{"mean_quiet", &w.Updates.MeanQuiet}, {"mean_burst", &w.Updates.MeanBurst},
		{"spike_at", &w.Updates.SpikeAt}, {"spike_duration", &w.Updates.SpikeDuration},
		{"spike_factor", &w.Updates.SpikeFactor}, {"peak_factor", &w.Updates.PeakFactor},
	} {
		if v := u.get(f.key); v != nil {
			if *f.dst, err = v.float("workload.updates." + f.key); err != nil {
				return err
			}
		}
	}
	if v := u.get("shape"); v != nil {
		if w.Updates.Shape, err = v.str("workload.updates.shape"); err != nil {
			return err
		}
	}
	if v := u.get("periods"); v != nil {
		if w.Updates.Periods, err = v.integer("workload.updates.periods"); err != nil {
			return err
		}
	}
	if v := u.get("steps"); v != nil {
		if w.Updates.Steps, err = v.integer("workload.updates.steps"); err != nil {
			return err
		}
	}
	if t := n.get("txns"); t != nil {
		if err := t.mapping("workload.txns", "rate", "duration"); err != nil {
			return err
		}
		if v := t.get("rate"); v != nil {
			if w.Txns.Rate, err = v.float("workload.txns.rate"); err != nil {
				return err
			}
		}
		if v := t.get("duration"); v != nil {
			if w.Txns.Duration, err = v.float("workload.txns.duration"); err != nil {
				return err
			}
		}
	}
	if w.Txns.Duration == 0 {
		w.Txns.Duration = w.Updates.Duration
	}
	return nil
}

func decodeFaults(n *node) ([]Fault, error) {
	items, err := n.sequence("faults")
	if err != nil {
		return nil, err
	}
	var out []Fault
	for i, item := range items {
		path := fmt.Sprintf("faults[%d]", i)
		if err := item.mapping(path, "at", "kind", "node", "duration",
			"reset", "partial", "flip", "max_delay_us",
			"windows", "min_ms", "max_ms",
			"write_err", "short_write", "sync_err", "checkpoint_ops"); err != nil {
			return nil, err
		}
		var f Fault
		if f.At, err = item.get("at").float(path + ".at"); err != nil {
			return nil, err
		}
		if f.Kind, err = item.get("kind").str(path + ".kind"); err != nil {
			return nil, err
		}
		if v := item.get("node"); v != nil {
			if f.Node, err = v.str(path + ".node"); err != nil {
				return nil, err
			}
		}
		for _, fl := range []struct {
			key string
			dst *float64
		}{
			{"duration", &f.Duration}, {"reset", &f.Reset}, {"partial", &f.Partial},
			{"flip", &f.Flip}, {"write_err", &f.WriteErr},
			{"short_write", &f.ShortWrite}, {"sync_err", &f.SyncErr},
		} {
			if v := item.get(fl.key); v != nil {
				if *fl.dst, err = v.float(path + "." + fl.key); err != nil {
					return nil, err
				}
			}
		}
		for _, in := range []struct {
			key string
			dst *int
		}{
			{"max_delay_us", &f.MaxDelayUS}, {"windows", &f.Windows},
			{"min_ms", &f.MinMS}, {"max_ms", &f.MaxMS}, {"checkpoint_ops", &f.CheckpointOps},
		} {
			if v := item.get(in.key); v != nil {
				if *in.dst, err = v.integer(path + "." + in.key); err != nil {
					return nil, err
				}
			}
		}
		if v := item.get("checkpoint_ops"); v != nil && f.CheckpointOps <= 0 {
			return nil, errAt(v.line, "%s.checkpoint_ops must be positive", path)
		}
		out = append(out, f)
	}
	return out, nil
}

func decodeAssertions(n *node) ([]Assertion, error) {
	items, err := n.sequence("assertions")
	if err != nil {
		return nil, err
	}
	var out []Assertion
	for i, item := range items {
		path := fmt.Sprintf("assertions[%d]", i)
		if err := item.mapping(path, "kind", "min", "max"); err != nil {
			return nil, err
		}
		var a Assertion
		if a.Kind, err = item.get("kind").str(path + ".kind"); err != nil {
			return nil, err
		}
		if v := item.get("min"); v != nil {
			if a.Min, err = v.float(path + ".min"); err != nil {
				return nil, err
			}
			a.HasMin = true
		}
		if v := item.get("max"); v != nil {
			if a.Max, err = v.float(path + ".max"); err != nil {
				return nil, err
			}
			a.HasMax = true
		}
		out = append(out, a)
	}
	return out, nil
}

// validate enforces the cross-field rules the decoder cannot see.
func (sc *Scenario) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario: %s", fmt.Sprintf(format, args...))
	}
	if sc.Name == "" {
		return bad("name is required")
	}
	for _, r := range sc.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
		default:
			return bad("name %q: use lowercase letters, digits and dashes", sc.Name)
		}
	}
	t := &sc.Topology
	if t.Mode != "static" && t.Mode != "elect" {
		return bad("topology.mode %q: want static or elect", t.Mode)
	}
	if t.FS != "mem" && t.FS != "os" {
		return bad("topology.fs %q: want mem or os", t.FS)
	}
	if len(t.Nodes) == 0 {
		return bad("topology.nodes is empty")
	}
	byName := map[string]bool{}
	roots := 0
	for _, n := range t.Nodes {
		if n.Name == "" {
			return bad("a node has no name")
		}
		switch n.Name {
		case "leader", "killed", "all":
			return bad("node name %q is a reserved selector", n.Name)
		}
		if byName[n.Name] {
			return bad("duplicate node name %q", n.Name)
		}
		byName[n.Name] = true
		if n.Upstream == "" {
			roots++
		}
	}
	switch t.Mode {
	case "static":
		if roots != 1 {
			return bad("static topology needs exactly one node without upstream (the primary), got %d", roots)
		}
		for _, n := range t.Nodes {
			if n.Upstream != "" && !byName[n.Upstream] {
				return bad("node %q upstream %q is not declared", n.Name, n.Upstream)
			}
		}
		// Reject upstream cycles: follow each chain to the root.
		up := map[string]string{}
		for _, n := range t.Nodes {
			up[n.Name] = n.Upstream
		}
		for _, n := range t.Nodes {
			seen := map[string]bool{}
			for cur := n.Name; cur != ""; cur = up[cur] {
				if seen[cur] {
					return bad("upstream cycle through node %q", cur)
				}
				seen[cur] = true
			}
		}
	case "elect":
		for _, n := range t.Nodes {
			if n.Upstream != "" {
				return bad("elect topology decides roles itself; node %q must not declare upstream", n.Name)
			}
		}
		if len(t.Nodes) < 3 {
			return bad("elect topology needs at least 3 nodes for a meaningful quorum, got %d", len(t.Nodes))
		}
	}
	w := &sc.Workload
	if w.NLow < 0 || w.NHigh < 0 || w.NLow+w.NHigh == 0 {
		return bad("workload.objects: low+high must be positive")
	}
	if w.Updates.Rate <= 0 {
		return bad("workload.updates.rate must be positive")
	}
	if w.Updates.Duration <= 0 {
		return bad("workload.updates.duration must be positive")
	}
	if w.Updates.Duration > 30 || w.Txns.Duration > 30 {
		return bad("workload durations are wall-clock seconds; keep them under 30")
	}
	switch w.Updates.Shape {
	case "constant":
	case "bursty":
		if w.Updates.BurstFactor < 1 {
			return bad("bursty shape needs burst_factor >= 1")
		}
	case "flash_crowd":
		if w.Updates.SpikeFactor < 1 || w.Updates.SpikeDuration <= 0 {
			return bad("flash_crowd shape needs spike_factor >= 1 and spike_duration > 0")
		}
	case "diurnal":
		if w.Updates.PeakFactor < 1 {
			return bad("diurnal shape needs peak_factor >= 1")
		}
	default:
		return bad("workload.updates.shape %q: want constant, bursty, flash_crowd or diurnal", w.Updates.Shape)
	}
	if err := sc.validateFaults(byName, bad); err != nil {
		return err
	}
	return sc.validateAssertions(bad)
}

func (sc *Scenario) validateFaults(byName map[string]bool, bad func(string, ...any) error) error {
	t := &sc.Topology
	elect := t.Mode == "elect"
	sawKill := false
	if !sort.SliceIsSorted(sc.Faults, func(i, j int) bool { return sc.Faults[i].At < sc.Faults[j].At }) {
		return bad("faults must be listed in increasing at order")
	}
	for i, f := range sc.Faults {
		where := fmt.Sprintf("faults[%d] (%s)", i, f.Kind)
		if f.At < 0 {
			return bad("%s: at must be >= 0", where)
		}
		target := func(allowDynamic bool) error {
			if f.Node == "" {
				return bad("%s: node is required", where)
			}
			if byName[f.Node] {
				return nil
			}
			if elect && allowDynamic && (f.Node == "leader" || f.Node == "killed") {
				return nil
			}
			return bad("%s: unknown node %q", where, f.Node)
		}
		needWindow := func() error {
			if f.Duration <= 0 {
				return bad("%s: duration must be positive", where)
			}
			return nil
		}
		needMemFS := func() error {
			if t.FS != "mem" {
				return bad("%s: requires topology.fs mem", where)
			}
			return nil
		}
		if f.CheckpointOps != 0 && f.Kind != "kill" {
			return bad("%s: checkpoint_ops applies only to kill", where)
		}
		switch f.Kind {
		case "chaos":
			if err := needWindow(); err != nil {
				return err
			}
			if f.Reset+f.Partial+f.Flip <= 0 && f.MaxDelayUS <= 0 {
				return bad("%s: all probabilities zero and no delay; the window would be a no-op", where)
			}
			if f.Reset+f.Partial+f.Flip > 1 {
				return bad("%s: reset+partial+flip must not exceed 1", where)
			}
			if elect {
				if f.Node != "" && f.Node != "all" {
					return bad("%s: elect mode chaos gates every link; use node: all", where)
				}
			} else {
				if err := target(false); err != nil {
					return err
				}
				if sc.upstreamOf(f.Node) == "" {
					return bad("%s: node %q has no upstream link to disturb", where, f.Node)
				}
			}
		case "partition":
			if err := needWindow(); err != nil {
				return err
			}
			if f.Node != "" {
				return bad("%s: partition blackholes every link; drop node", where)
			}
			if f.Windows > 0 && (f.MinMS <= 0 || f.MaxMS < f.MinMS) {
				return bad("%s: windows > 0 needs 0 < min_ms <= max_ms", where)
			}
		case "wal":
			if err := needWindow(); err != nil {
				return err
			}
			if err := needMemFS(); err != nil {
				return err
			}
			if err := target(true); err != nil {
				return err
			}
			if f.WriteErr+f.ShortWrite+f.SyncErr <= 0 {
				return bad("%s: all probabilities zero; the window would be a no-op", where)
			}
		case "kill":
			if err := needMemFS(); err != nil {
				return err
			}
			if err := target(true); err != nil {
				return err
			}
			if !elect && sc.upstreamOf(f.Node) == "" && f.Node != "" && byName[f.Node] {
				return bad("%s: cannot kill the static primary (use an elect topology for primary death)", where)
			}
			sawKill = true
		case "restart":
			if err := needMemFS(); err != nil {
				return err
			}
			if err := target(true); err != nil {
				return err
			}
			if !sawKill {
				return bad("%s: restart needs an earlier kill", where)
			}
		case "checkpoint":
			if err := target(true); err != nil {
				return err
			}
		default:
			return bad("%s: unknown fault kind", where)
		}
	}
	return nil
}

func (sc *Scenario) validateAssertions(bad func(string, ...any) error) error {
	if len(sc.Assertions) == 0 {
		return bad("at least one assertion is required")
	}
	elect := sc.Topology.Mode == "elect"
	hasKind := func(k string) bool {
		for _, f := range sc.Faults {
			if f.Kind == k {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	for i, a := range sc.Assertions {
		where := fmt.Sprintf("assertions[%d] (%s)", i, a.Kind)
		if seen[a.Kind] {
			return bad("%s: duplicate assertion kind", where)
		}
		seen[a.Kind] = true
		needMax := func() error {
			if !a.HasMax {
				return bad("%s: max bound is required", where)
			}
			return nil
		}
		switch a.Kind {
		case "convergence":
		case "progress":
			if !a.HasMin {
				return bad("%s: min bound is required", where)
			}
		case "staleness_p99", "staleness_max", "uu_p99":
			if err := needMax(); err != nil {
				return err
			}
		case "faults_injected":
			if !a.HasMin {
				return bad("%s: min bound is required", where)
			}
			if len(sc.Faults) == 0 {
				return bad("%s: scenario declares no faults", where)
			}
		case "reconnects":
			if elect {
				return bad("%s: reconnect counters are per static replica; elect re-points do not register them", where)
			}
			if !a.HasMin && !a.HasMax {
				return bad("%s: needs min and/or max", where)
			}
		case "durability":
			if !elect {
				return bad("%s: durability markers are committed on the elected leader; use an elect topology", where)
			}
			if !hasKind("kill") || !hasKind("restart") {
				return bad("%s: needs a kill and a restart fault to exercise", where)
			}
		case "one_winner":
			if !elect {
				return bad("%s: requires an elect topology", where)
			}
		case "rebootstrap":
			if !elect {
				return bad("%s: a restarted node re-bootstraps from an elected primary; use an elect topology", where)
			}
			if !hasKind("restart") {
				return bad("%s: needs a restart fault to exercise", where)
			}
		case "degraded":
			if !hasKind("wal") {
				return bad("%s: needs a wal fault window to enter degraded mode", where)
			}
			if sc.Workload.Txns.Rate <= 0 {
				return bad("%s: needs workload.txns.rate > 0 (transactions exercise the WAL)", where)
			}
		default:
			return bad("%s: unknown assertion kind", where)
		}
	}
	return nil
}

// upstreamOf returns a static node's upstream, or "".
func (sc *Scenario) upstreamOf(name string) string {
	for _, n := range sc.Topology.Nodes {
		if n.Name == name {
			return n.Upstream
		}
	}
	return ""
}

// String renders a one-line summary for -list.
func (sc *Scenario) String() string {
	return fmt.Sprintf("%s [%s/%d nodes, %s %s] %s",
		sc.Name, sc.Topology.Mode, len(sc.Topology.Nodes),
		sc.Workload.Updates.Shape, strings.TrimSpace(sc.Description), "")
}
