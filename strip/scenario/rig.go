package scenario

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/strip"
	"repro/strip/elect"
	"repro/strip/fault"
	"repro/strip/obs"
	"repro/strip/repl"
)

// runNode is one live (or killed) fleet member.
type runNode struct {
	name string
	spec NodeSpec

	fs  *fault.MemFS // nil when the scenario runs on the real filesystem
	dir string       // temp dir for fs=os
	reg *obs.Registry
	db  *strip.DB

	// static mode
	serveAddr string // reserved replication address when this node has children
	ln        net.Listener
	primary   *repl.Primary
	replica   *repl.Replica

	// elect mode
	electID string // peer address; doubles as the elect listen address
	fo      *repl.Failover
	node    *elect.Node

	alive bool
	// kill captures, for restart and for assertions over dead lives.
	killOps   []fault.Op
	killStat  strip.Stats
	killEpoch uint64 // elect mode: the epoch the node last died in
	lives     int
}

// winners is the exactly-one-winner ledger: every promotion any node
// reports, by epoch.
type winners struct {
	mu         sync.Mutex
	byEpoch    map[uint64]string
	bad        []string
	promotions int
}

func (w *winners) promoted(node string, epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.promotions++
	if prev, ok := w.byEpoch[epoch]; ok && prev != node {
		w.bad = append(w.bad, fmt.Sprintf("epoch %d claimed by both %s and %s", epoch, prev, node))
		return
	}
	w.byEpoch[epoch] = node
}

func (w *winners) violations() (bad []string, promotions int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.bad...), w.promotions
}

// chaosCtl applies one chaosSpec at runtime: every wrapped connection
// gets its own seed-derived fault stream, gated to the plan's windows.
type chaosCtl struct {
	rig  *rig
	spec *chaosSpec
	seq  atomic.Uint64
}

func (c *chaosCtl) active() bool {
	elapsed := time.Since(c.rig.started())
	for _, w := range c.spec.wins {
		if w.contains(elapsed) {
			return true
		}
	}
	return false
}

func (c *chaosCtl) wrap(conn net.Conn) net.Conn {
	cfg := c.spec.cfg
	cfg.Seed += c.seq.Add(1)
	cfg.Gate = c.active
	cfg.OnFault = func(side, kind string, arg int) { c.rig.faults.Add(1) }
	return fault.WrapConn(conn, cfg)
}

// chaosListener wraps a serving node's accepted connections in the
// chaos of its chaos-targeted children, so injected corruption also
// hits the frame stream the primary writes.
type chaosListener struct {
	net.Listener
	ctls []*chaosCtl
}

func (l *chaosListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	for _, c := range l.ctls {
		conn = c.wrap(conn)
	}
	return conn, nil
}

// rig is the runtime of one scenario: the fleet, the global fault
// machinery and the captured evidence the assertions read.
type rig struct {
	sc   *Scenario
	pl   *plan
	logf func(string, ...any)

	nodes map[string]*runNode
	order []string
	root  string // static mode's declared primary

	startMu sync.Mutex
	start   time.Time
	part    *fault.Partition // guarded by startMu; published after boot

	chaos  map[string]*chaosCtl
	faults atomic.Uint64

	win *winners

	mu         sync.Mutex
	lastKilled string
	deadStats  []strip.Stats // kill-time snapshots of ended lives
	durFail    []string
	markers    []string
	notes      []string
	dropped    int // workload items with no live head to receive them
}

func newRig(sc *Scenario, pl *plan, logf func(string, ...any)) *rig {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &rig{
		sc:    sc,
		pl:    pl,
		logf:  logf,
		nodes: map[string]*runNode{},
		chaos: map[string]*chaosCtl{},
		win:   &winners{byEpoch: map[uint64]string{}},
	}
	for _, n := range sc.Topology.Nodes {
		r.order = append(r.order, n.Name)
		r.nodes[n.Name] = &runNode{name: n.Name, spec: n}
		if sc.Topology.Mode == "static" && n.Upstream == "" {
			r.root = n.Name
		}
	}
	for target, spec := range pl.chaos {
		r.chaos[target] = &chaosCtl{rig: r, spec: spec}
	}
	return r
}

func (r *rig) started() time.Time {
	r.startMu.Lock()
	defer r.startMu.Unlock()
	return r.start
}

func (r *rig) setStart(t time.Time) {
	r.startMu.Lock()
	r.start = t
	r.startMu.Unlock()
}

func (r *rig) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
	r.logf("scenario %s: "+format, append([]any{r.sc.Name}, args...)...)
}

func (r *rig) details() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.notes...)
}

// elapsed is the scenario clock.
func (r *rig) elapsed() float64 { return time.Since(r.started()).Seconds() }

// sleepUntil blocks until the scenario clock reaches at.
func (r *rig) sleepUntil(at float64) {
	d := time.Until(r.started().Add(time.Duration(at * float64(time.Second))))
	if d > 0 {
		time.Sleep(d)
	}
}

// partition returns the published partition schedule, if any.
func (r *rig) partition() *fault.Partition {
	r.startMu.Lock()
	defer r.startMu.Unlock()
	return r.part
}

// gate routes a dial through the global partition schedule. Replicas
// start dialing during boot, before the schedule is published, so a
// conn dialed then is wrapped to look the schedule up on every
// operation: a boot-time link obeys the windows like any later one.
func (r *rig) gate(dial func() (net.Conn, error)) (net.Conn, error) {
	if p := r.partition(); p != nil {
		return p.Dial(dial)()
	}
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	return &bootConn{Conn: conn, r: r}, nil
}

// bootConn is a conn gate dialed before the partition schedule was
// published; once it is, every read and write goes through it.
type bootConn struct {
	net.Conn
	r *rig
}

func (c *bootConn) Read(b []byte) (int, error) {
	if p := c.r.partition(); p != nil {
		return p.Wrap(c.Conn).Read(b)
	}
	return c.Conn.Read(b)
}

func (c *bootConn) Write(b []byte) (int, error) {
	if p := c.r.partition(); p != nil {
		return p.Wrap(c.Conn).Write(b)
	}
	return c.Conn.Write(b)
}

// publishPartition starts the partition schedule: from now on every
// gated dial and conn obeys it, and every blackholed operation counts
// as an injected fault.
func (r *rig) publishPartition(p *fault.Partition) {
	p.OnFault = func(op string) { r.faults.Add(1) }
	r.startMu.Lock()
	r.part = p
	r.startMu.Unlock()
}

// openNodeDB opens (or reopens) a node's database on the given
// filesystem with a fresh registry.
func (r *rig) openNodeDB(n *runNode, fs *fault.MemFS) error {
	n.reg = obs.NewRegistry()
	cfg := strip.Config{Policy: strip.UpdatesFirst, Metrics: n.reg}
	if fs != nil {
		n.fs = fs
		cfg.FS = fs
		if n.spec.WAL {
			cfg.WALPath = "wal"
		}
	} else if n.spec.WAL {
		cfg.WALPath = filepath.Join(n.dir, "wal")
	}
	db, err := strip.Open(cfg)
	if err != nil {
		return fmt.Errorf("scenario: open %s: %w", n.name, err)
	}
	r.mu.Lock()
	n.db = db
	n.alive = true
	n.lives++
	r.mu.Unlock()
	return nil
}

// defineObjects declares the planned view objects on a database.
func (r *rig) defineObjects(db *strip.DB) error {
	for _, o := range r.pl.objects {
		if err := db.DefineView(o.name, o.imp); err != nil {
			return err
		}
	}
	return nil
}

// boot builds the fleet. For elect topologies it also waits for the
// first election to settle, so the scenario clock starts with a
// working primary — fault offsets then mean the same thing run to run.
func (r *rig) boot() error {
	if r.sc.Topology.FS == "os" {
		for _, name := range r.order {
			dir, err := os.MkdirTemp("", "scenario-"+name+"-")
			if err != nil {
				return err
			}
			r.nodes[name].dir = dir
		}
	}
	var err error
	if r.sc.Topology.Mode == "static" {
		err = r.bootStatic()
	} else {
		err = r.bootElect()
	}
	if err != nil {
		return err
	}
	r.setStart(time.Now())
	// The partition starts with the scenario clock, after boot — so its
	// windows line up with the plan's offsets. Links dialed during boot
	// pick it up through bootConn.
	if len(r.pl.partWins) > 0 {
		r.publishPartition(fault.NewPartition(nil, r.pl.partWins...))
	}
	return nil
}

// children lists a static node's direct downstreams in declaration
// order.
func (r *rig) children(name string) []*runNode {
	var out []*runNode
	for _, cand := range r.order {
		if r.nodes[cand].spec.Upstream == name {
			out = append(out, r.nodes[cand])
		}
	}
	return out
}

// listenReserved listens on addr, retrying briefly: a restart relists
// on an address whose previous listener just closed.
func listenReserved(addr string) (net.Listener, error) {
	var lastErr error
	for i := 0; i < 200; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return nil, lastErr
}

// serveStatic opens a static node's replication listener (wrapped in
// its children's chaos) and starts its Primary.
func (r *rig) serveStatic(n *runNode) error {
	if len(r.children(n.name)) == 0 {
		return nil
	}
	var ln net.Listener
	var err error
	if n.serveAddr == "" {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		n.serveAddr = ln.Addr().String()
	} else if ln, err = listenReserved(n.serveAddr); err != nil {
		return fmt.Errorf("scenario: relisten %s for %s: %w", n.serveAddr, n.name, err)
	}
	var ctls []*chaosCtl
	for _, child := range r.children(n.name) {
		if c := r.chaos[child.name]; c != nil {
			ctls = append(ctls, c)
		}
	}
	n.ln = ln
	if len(ctls) > 0 {
		ln = &chaosListener{Listener: ln, ctls: ctls}
	}
	n.primary = repl.NewPrimary(n.db, repl.PrimaryConfig{RingFrames: 256, Metrics: n.reg})
	go n.primary.Serve(ln)
	return nil
}

// followStatic points a static node's replica at its upstream through
// the partition gate and the link's chaos.
func (r *rig) followStatic(n *runNode) error {
	up := r.nodes[n.spec.Upstream]
	ctl := r.chaos[n.name]
	dial := func() (net.Conn, error) {
		conn, err := r.gate(func() (net.Conn, error) {
			return net.DialTimeout("tcp", up.serveAddr, time.Second)
		})
		if err != nil {
			return nil, err
		}
		if ctl != nil {
			conn = ctl.wrap(conn)
		}
		return conn, nil
	}
	rep, err := repl.StartReplica(n.db, repl.ReplicaConfig{
		Dial:        dial,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        subSeed(r.pl.seed, 64+n.lives),
		Metrics:     n.reg,
	})
	if err != nil {
		return err
	}
	n.replica = rep
	return nil
}

// bootStatic builds the declared replica tree: every node with
// children serves a Primary; every node with an upstream follows it.
func (r *rig) bootStatic() error {
	for _, name := range r.order {
		n := r.nodes[name]
		var fs *fault.MemFS
		if r.sc.Topology.FS == "mem" {
			fs = fault.NewMemFS()
		}
		if err := r.openNodeDB(n, fs); err != nil {
			return err
		}
		if name == r.root {
			if err := r.defineObjects(n.db); err != nil {
				return err
			}
		}
		if err := r.serveStatic(n); err != nil {
			return err
		}
	}
	// Replicas start after every listener is up, parents first so a
	// chain bootstraps in one pass.
	for _, name := range r.order {
		n := r.nodes[name]
		if n.spec.Upstream != "" {
			if err := r.followStatic(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// electTiming shrinks the election clocks so a kill, the re-election
// and a restart fit in a scenario run of a few seconds.
func electTiming() elect.Timing {
	return elect.Timing{
		ProbeInterval: 20 * time.Millisecond,
		FailAfter:     150 * time.Millisecond,
		PhaseTimeout:  80 * time.Millisecond,
		BackoffBase:   15 * time.Millisecond,
		BackoffMax:    150 * time.Millisecond,
	}
}

// startElect builds and starts one elect participant on fs, listening
// on ln (which must be bound to the node's electID).
func (r *rig) startElect(n *runNode, ln net.Listener, fs *fault.MemFS, seed uint64) error {
	if err := r.openNodeDB(n, fs); err != nil {
		return err
	}
	if err := r.defineObjects(n.db); err != nil {
		return err
	}
	var peers []string
	for _, name := range r.order {
		peers = append(peers, r.nodes[name].electID)
	}
	node, err := elect.NewNode(elect.Config{
		Self:      n.electID,
		Peers:     peers,
		Seed:      seed,
		Timing:    electTiming(),
		TickEvery: 5 * time.Millisecond,
		IOTimeout: 500 * time.Millisecond,
		StatePath: "elect-ledger",
		FS:        fs,
		Dial: func(addr string) (net.Conn, error) {
			return r.gate(func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 500*time.Millisecond)
			})
		},
	})
	if err != nil {
		return err
	}
	go node.Serve(ln)
	r.mu.Lock()
	n.node = node
	r.mu.Unlock()
	name := n.name
	ctl := r.chaos["all"]
	fo, err := repl.StartFailover(n.db, repl.FailoverConfig{
		Node:       node,
		ReplAddrOf: func(peer string) string { return r.replAddrOf(peer) },
		ListenRepl: func() (net.Listener, error) { return listenReserved(n.serveAddr) },
		DialRepl: func(addr string) (net.Conn, error) {
			conn, err := r.gate(func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 500*time.Millisecond)
			})
			if err != nil {
				return nil, err
			}
			if ctl != nil {
				conn = ctl.wrap(conn)
			}
			return conn, nil
		},
		RingFrames:  256,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Seed:        seed,
		Metrics:     n.reg,
		OnRole: func(role repl.FailoverRole, epoch uint64) {
			if role == repl.RolePrimary {
				r.win.promoted(name, epoch)
			}
		},
	})
	if err != nil {
		node.Close()
		return err
	}
	r.mu.Lock()
	n.fo = fo
	r.mu.Unlock()
	return nil
}

// replAddrOf maps an elect peer ID to its replication address.
func (r *rig) replAddrOf(peer string) string {
	for _, name := range r.order {
		if n := r.nodes[name]; n.electID == peer {
			return n.serveAddr
		}
	}
	return ""
}

// bootElect builds the peer set and waits for the first election.
func (r *rig) bootElect() error {
	listeners := make([]net.Listener, len(r.order))
	for i, name := range r.order {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = ln
		r.nodes[name].electID = ln.Addr().String()
	}
	for _, name := range r.order {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr := ln.Addr().String()
		ln.Close()
		r.nodes[name].serveAddr = addr
	}
	for i, name := range r.order {
		if err := r.startElect(r.nodes[name], listeners[i], fault.NewMemFS(), subSeed(r.pl.seed, 32+i)); err != nil {
			return err
		}
	}
	if r.awaitRoles(0, 20*time.Second) == nil {
		return fmt.Errorf("scenario: initial election did not settle")
	}
	return nil
}

// awaitRoles waits until exactly one live node is primary above epoch
// after, with every other live node following at the same epoch.
func (r *rig) awaitRoles(after uint64, timeout time.Duration) *runNode {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p := r.rolesSettled(after); p != nil {
			return p
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func (r *rig) rolesSettled(after uint64) *runNode {
	var primary *runNode
	var epoch uint64
	for _, name := range r.order {
		n := r.nodes[name]
		if !n.alive {
			continue
		}
		role, e := n.fo.Role()
		if role == repl.RolePrimary {
			if primary != nil {
				return nil
			}
			primary, epoch = n, e
		}
	}
	if primary == nil || epoch <= after {
		return nil
	}
	for _, name := range r.order {
		n := r.nodes[name]
		if !n.alive || n == primary {
			continue
		}
		role, e := n.fo.Role()
		if role != repl.RoleReplica || e != epoch {
			return nil
		}
	}
	return primary
}

// head is the node currently receiving the workload: the static root,
// or the elected leader (nil while an election is in flight). The
// database handle is snapshotted under the rig lock because kill and
// restart swap it while the feeder goroutines are still running.
func (r *rig) head() (*runNode, *strip.DB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sc.Topology.Mode == "static" {
		n := r.nodes[r.root]
		if n.alive {
			return n, n.db
		}
		return nil, nil
	}
	for _, name := range r.order {
		n := r.nodes[name]
		if n.alive && n.fo != nil {
			if role, _ := n.fo.Role(); role == repl.RolePrimary {
				return n, n.db
			}
		}
	}
	return nil, nil
}

// drive replays the planned workload and fault schedule in real time.
func (r *rig) drive() {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range r.pl.updates {
			u := &r.pl.updates[i]
			r.sleepUntil(u.at)
			_, db := r.head()
			if db == nil {
				r.countDropped()
				continue
			}
			err := db.ApplyUpdate(strip.Update{
				Object:    u.obj,
				Value:     u.val,
				Generated: r.started().Add(time.Duration(u.gen * float64(time.Second))),
			})
			if err != nil {
				r.countDropped()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := range r.pl.txns {
			tx := &r.pl.txns[i]
			r.sleepUntil(tx.at)
			_, db := r.head()
			if db == nil {
				r.countDropped()
				continue
			}
			// Failures are expected — degraded windows abort commits —
			// and are counted by the database itself.
			r.execSet(db, tx.key, tx.val)
		}
	}()
	for _, ev := range r.pl.events {
		r.sleepUntil(ev.at)
		r.exec(ev)
	}
	wg.Wait()
	r.sleepUntil(r.pl.endAt)
}

func (r *rig) countDropped() {
	r.mu.Lock()
	r.dropped++
	r.mu.Unlock()
}

// execSet commits one general-data write, reporting success.
func (r *rig) execSet(db *strip.DB, key string, v float64) bool {
	res := db.Exec(strip.TxnSpec{
		Value:    1,
		Deadline: time.Now().Add(2 * time.Second),
		Func: func(tx *strip.Tx) error {
			tx.Set(key, v)
			return nil
		},
	})
	return res.Committed()
}

// resolve maps a fault's node selector to a live runtime node.
func (r *rig) resolve(selector string) *runNode {
	switch selector {
	case "leader":
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if n, _ := r.head(); n != nil {
				return n
			}
			time.Sleep(5 * time.Millisecond)
		}
		return nil
	case "killed":
		r.mu.Lock()
		name := r.lastKilled
		r.mu.Unlock()
		if name == "" {
			return nil
		}
		return r.nodes[name]
	default:
		return r.nodes[selector]
	}
}

// exec runs one fault event.
func (r *rig) exec(ev *planEvent) {
	switch ev.kind {
	case "wal_on":
		n := r.resolve(ev.node)
		if n == nil || !n.alive || n.fs == nil {
			r.note("wal window at %.3fs found no target for %q", ev.at, ev.node)
			return
		}
		ev.pair.node = n
		n.fs.SetInjector(ev.pair.sched.Injector())
		r.note("wal faults on %s", n.name)
	case "wal_off":
		if n := ev.pair.node; n != nil && n.alive {
			n.fs.SetInjector(nil)
			r.note("wal faults off %s after %d injections", n.name, len(ev.pair.sched.Log()))
		}
	case "checkpoint":
		n := r.resolve(ev.node)
		if n == nil || !n.alive {
			r.note("checkpoint at %.3fs found no target for %q", ev.at, ev.node)
			return
		}
		if err := n.db.Checkpoint(); err != nil {
			r.note("checkpoint on %s failed: %v", n.name, err)
		} else {
			r.note("checkpoint on %s", n.name)
		}
	case "kill":
		n := r.resolve(ev.node)
		if n == nil || !n.alive {
			r.note("kill at %.3fs found no target for %q", ev.at, ev.node)
			return
		}
		r.kill(n, ev.ops)
	case "restart":
		n := r.resolve(ev.node)
		if n == nil || n.alive {
			r.note("restart at %.3fs found no target for %q", ev.at, ev.node)
			return
		}
		if err := r.restart(n); err != nil {
			r.note("restart of %s failed: %v", n.name, err)
		}
	}
}

// kill tears a node down in process-death order, capturing the disk
// image its crash leaves behind. On an elect node with a WAL it first
// commits and syncs durability markers — the synced⇒present evidence
// the durability assertion checks after restart. With checkpointOps >
// 0 it then dies mid-checkpoint: the filesystem crashes at the
// checkpoint's checkpointOps-th operation, freezing it half written.
func (r *rig) kill(n *runNode, checkpointOps int) {
	if r.sc.Topology.Mode == "elect" && n.spec.WAL {
		for i := 0; i < 3; i++ {
			key := fmt.Sprintf("durable/%s-%d-%d", n.name, n.lives, i)
			if !r.execSet(n.db, key, float64(i+1)) {
				continue
			}
			if err := n.db.Sync(); err != nil {
				continue
			}
			r.mu.Lock()
			r.markers = append(r.markers, key)
			r.mu.Unlock()
		}
	}
	if checkpointOps > 0 {
		fs, ops := n.fs, new(atomic.Int64)
		fs.SetInjector(func(fault.Op) (int, error) {
			if ops.Add(1) == int64(checkpointOps) {
				fs.Crash()
			}
			return 0, nil
		})
		r.note("checkpoint on %s crashing at operation %d returned %v", n.name, checkpointOps, n.db.Checkpoint())
	}
	n.killOps = n.fs.Ops()
	n.killStat = n.db.Stats()
	if n.fo != nil {
		_, n.killEpoch = n.fo.Role()
	}
	r.mu.Lock()
	r.deadStats = append(r.deadStats, n.killStat)
	r.lastKilled = n.name
	n.alive = false
	r.mu.Unlock()
	if r.sc.Topology.Mode == "elect" {
		n.fo.Close()
		n.node.Close()
		n.db.Close()
	} else {
		if n.replica != nil {
			n.replica.Close()
			n.replica = nil
		}
		if n.primary != nil {
			n.primary.Close()
			n.primary = nil
		}
		if n.ln != nil {
			n.ln.Close()
			n.ln = nil
		}
		n.db.Close()
	}
	r.note("killed %s", n.name)
}

// restart revives a killed node from the filesystem image its death
// froze. Elect nodes first get their WAL recovery checked against the
// recorded durability markers on a scratch rebuild, then rejoin the
// group on a second rebuild of the same image.
func (r *rig) restart(n *runNode) error {
	full := fault.CrashPoint{OpIdx: len(n.killOps)}
	if r.sc.Topology.Mode == "elect" {
		r.checkDurability(n, fault.BuildFS(n.killOps, full))
		ln, err := listenReserved(n.electID)
		if err != nil {
			return err
		}
		if err := r.startElect(n, ln, fault.BuildFS(n.killOps, full), subSeed(r.pl.seed, 48+n.lives)); err != nil {
			ln.Close()
			return err
		}
		r.note("restarted %s", n.name)
		return nil
	}
	if err := r.openNodeDB(n, fault.BuildFS(n.killOps, full)); err != nil {
		return err
	}
	if err := r.serveStatic(n); err != nil {
		return err
	}
	if n.spec.Upstream != "" {
		if err := r.followStatic(n); err != nil {
			return err
		}
	}
	r.note("restarted %s", n.name)
	return nil
}

// checkDurability opens a scratch database on the crash image and
// verifies every synced marker survived recovery.
func (r *rig) checkDurability(n *runNode, fs *fault.MemFS) {
	r.mu.Lock()
	markers := append([]string(nil), r.markers...)
	r.mu.Unlock()
	if len(markers) == 0 {
		return
	}
	db, err := strip.Open(strip.Config{Policy: strip.UpdatesFirst, WALPath: "wal", FS: fs})
	if err != nil {
		r.mu.Lock()
		r.durFail = append(r.durFail, fmt.Sprintf("recovery open of %s failed: %v", n.name, err))
		r.mu.Unlock()
		return
	}
	defer db.Close()
	var missing []string
	res := db.Exec(strip.TxnSpec{
		Deadline: time.Now().Add(2 * time.Second),
		Func: func(tx *strip.Tx) error {
			for _, key := range markers {
				if _, ok := tx.Get(key); !ok {
					missing = append(missing, key)
				}
			}
			return nil
		},
	})
	var fails []string
	if !res.Committed() {
		fails = append(fails, fmt.Sprintf("recovery read on %s failed: %v", n.name, res.Err))
	} else {
		for _, key := range missing {
			fails = append(fails, fmt.Sprintf("synced marker %s missing after %s recovered", key, n.name))
		}
	}
	r.mu.Lock()
	r.durFail = append(r.durFail, fails...)
	r.mu.Unlock()
	if res.Committed() {
		r.note("durability: %d/%d synced markers recovered on %s", len(markers)-len(missing), len(markers), n.name)
	}
}

// settle waits out every fault window so the assertions measure a
// healed fleet: the partition schedule must be past its last window,
// and an elect fleet must have exactly one primary again.
func (r *rig) settle() {
	if p := r.partition(); p != nil {
		for p.Active() || time.Now().Before(p.HealedBy()) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if r.sc.Topology.Mode == "elect" {
		if r.awaitRoles(0, 20*time.Second) == nil {
			r.note("fleet did not settle on a single primary after the schedule")
		}
	}
}

// alive lists the live nodes in declaration order.
func (r *rig) aliveNodes() []*runNode {
	var out []*runNode
	for _, name := range r.order {
		if n := r.nodes[name]; n.alive {
			out = append(out, n)
		}
	}
	return out
}

// stateOf is the byte-identical convergence fingerprint: the snapshot
// encoding with the sequence number zeroed.
func stateOf(db *strip.DB) ([]byte, error) {
	s := db.ReplicaSnapshot()
	s.Seq = 0
	return repl.EncodeSnapshot(s)
}

// converge feeds a settle round through the head and polls until every
// live node's state is byte-identical to the head's.
func (r *rig) converge(timeout time.Duration) error {
	head, _ := r.head()
	if head == nil {
		return fmt.Errorf("no live head to converge on")
	}
	for i := 0; i < 5; i++ {
		r.execSet(head.db, "settle", float64(i))
		head.db.ApplyUpdate(strip.Update{Object: r.pl.objects[0].name, Value: float64(i) + 0.5})
	}
	deadline := time.Now().Add(timeout)
	var lagging string
	for time.Now().Before(deadline) {
		want, err := stateOf(head.db)
		if err != nil {
			return err
		}
		lagging = ""
		for _, n := range r.aliveNodes() {
			if n == head {
				continue
			}
			got, err := stateOf(n.db)
			if err != nil {
				return err
			}
			if !bytes.Equal(want, got) {
				lagging = n.name
				break
			}
		}
		if lagging == "" {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s never matched %s byte for byte", lagging, head.name)
}

// rebootstrapped polls until every node restarted during the run is a
// replica at an epoch above the one it died in, whose new life has
// installed a snapshot, and returns how many were restarted.
func (r *rig) rebootstrapped(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		revived, err := 0, error(nil)
		for _, name := range r.order {
			n := r.nodes[name]
			if n.lives < 2 {
				continue
			}
			revived++
			if !n.alive {
				err = fmt.Errorf("%s was restarted and is down at the end", n.name)
				continue
			}
			role, e := n.fo.Role()
			if snaps := n.db.Stats().ReplSnapshotsInstalled; role != repl.RoleReplica || e <= n.killEpoch || snaps == 0 {
				err = fmt.Errorf("%s is %s at epoch %d with %d snapshots installed, want a replica above epoch %d with >= 1",
					n.name, role, e, snaps, n.killEpoch)
			}
		}
		if revived == 0 {
			err = fmt.Errorf("no node was restarted")
		}
		if err == nil || time.Now().After(deadline) {
			return revived, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// faultsTotal sums every injector's landed faults.
func (r *rig) faultsTotal() uint64 {
	total := r.faults.Load()
	for _, s := range r.pl.scheds {
		total += uint64(len(s.Log()))
	}
	return total
}

// statRecords returns one Stats per node life: kill-time snapshots of
// dead lives plus the live databases' current counters.
func (r *rig) statRecords() []strip.Stats {
	r.mu.Lock()
	out := append([]strip.Stats(nil), r.deadStats...)
	r.mu.Unlock()
	for _, n := range r.aliveNodes() {
		out = append(out, n.db.Stats())
	}
	return out
}

// teardown closes everything still running and removes temp dirs.
func (r *rig) teardown() {
	// Leaves first so nothing re-dials a closed upstream for long.
	for i := len(r.order) - 1; i >= 0; i-- {
		n := r.nodes[r.order[i]]
		if !n.alive {
			continue
		}
		n.alive = false
		if r.sc.Topology.Mode == "elect" {
			n.fo.Close()
			n.node.Close()
		} else {
			if n.replica != nil {
				n.replica.Close()
			}
			if n.primary != nil {
				n.primary.Close()
			}
			if n.ln != nil {
				n.ln.Close()
			}
		}
		n.db.Close()
	}
	for _, name := range r.order {
		if dir := r.nodes[name].dir; dir != "" {
			os.RemoveAll(dir)
		}
	}
}
