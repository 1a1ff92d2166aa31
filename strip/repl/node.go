package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/strip"
	"repro/strip/elect"
	"repro/strip/obs"
)

// Role is a node's replication role.
type Role string

const (
	// RoleIdle is an election member's role until the first decision.
	RoleIdle Role = "idle"
	// RoleStandalone is a static node that neither serves nor follows
	// a stream.
	RoleStandalone Role = "standalone"
	// RolePrimary serves the replication stream and follows none.
	RolePrimary Role = "primary"
	// RoleReplica follows a primary's stream and serves none.
	RoleReplica Role = "replica"
	// RoleRelay is a static chained mid-tier: it follows its upstream
	// and serves its own replicas.
	RoleRelay Role = "relay"
)

// Serves reports whether a node in this role serves a stream.
func (r Role) Serves() bool { return r == RolePrimary || r == RoleRelay }

// Follows reports whether a node in this role follows a stream.
func (r Role) Follows() bool { return r == RoleReplica || r == RoleRelay }

// NodeConfig describes one replication node: its database and either a
// static place in a replica tree (Serve, Replica.Addr) or membership of
// an election group (Elect, ReplAddrs).
type NodeConfig struct {
	// DB configures the node's database. The node decides Coalesce:
	// only a node that can never follow coalesces, since a replica
	// must install the full stream and an election member may become
	// one at any moment. DB.FS also holds the election ledger, and
	// DB.Metrics also receives the replication and election series.
	DB strip.Config
	// Schema defines the views. Every node but a static replica runs
	// it; a static replica imports its upstream's schema from the
	// stream.
	Schema func(db *strip.DB) error

	// Serve is a static node's replication address; when set the node
	// serves its stream there.
	Serve string
	// Primary configures the serving side. The node sets Metrics.
	Primary PrimaryConfig
	// Replica configures the following side. A static node follows
	// Replica.Addr when it is set; an election member follows the
	// decided leader. The node sets Dial and Metrics, and picks the
	// snapshot mode from the role: an elected follower replaces its
	// state with the leader's snapshot, a static replica merges it.
	Replica ReplicaConfig

	// Elect, when Elect.Self is set, makes the node an election
	// member that serves the stream while the group elects it and
	// follows the elected leader otherwise. Serve and Replica.Addr
	// must then be empty. The node sets FS and Metrics, and logs its
	// role changes to Elect.Logf.
	Elect elect.Config
	// ReplAddrs maps every member's elect ID (Elect.Self included) to
	// the replication address it serves on when elected.
	ReplAddrs map[string]string

	// Listen opens the replication and election listeners; nil means
	// net.Listen tcp.
	Listen func(addr string) (net.Listener, error)
	// Dial reaches an upstream or an elected leader's replication
	// address; nil means net.Dial tcp. Election traffic dials through
	// Elect.Dial.
	Dial func(addr string) (net.Conn, error)
	// OnRole, when set, observes every role change an election
	// decides.
	OnRole func(role Role, epoch uint64)
}

// Node is one replication node: a database plus whichever of Primary,
// Replica and election member its configuration makes it.
//
// A static node's role is fixed at start. An election member plays
// the role its election node decides: when it learns that this process
// won epoch E, it adopts E as the database's replication epoch and
// starts serving the stream (promotion); when another node won, it
// points a snapshot-resetting Replica at the winner (demotion or
// re-point). The epoch machinery does the rest — a deposed primary or
// a stale follower presents a cursor from the old history, is refused
// resume, and re-bootstraps from the new primary's snapshot, so
// failover cannot splice two histories together.
type Node struct {
	cfg  NodeConfig
	db   *strip.DB
	el   *elect.Node // nil on a static node
	logf func(string, ...any)

	// stop and done drive an election member's decision loop; nil on
	// a static node.
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	role    Role         // guarded by mu
	epoch   uint64       // guarded by mu; epoch of the last applied decision
	primary *Primary     // guarded by mu; serving side, if any
	ln      net.Listener // guarded by mu; the serving side's listener
	replica *Replica     // guarded by mu; following side, if any
	closed  bool         // guarded by mu
}

// StartNode opens the database, defines the schema and starts the
// node's replication sides: the serving listener and then the
// follower for a static node, the election node's listener and then
// the decision loop for an election member. Close stops all of it and
// closes the database.
func StartNode(cfg NodeConfig) (*Node, error) {
	role := startRole(cfg)
	if role == RoleIdle {
		if cfg.Serve != "" || cfg.Replica.Addr != "" {
			return nil, fmt.Errorf("repl: an election member's roles come from the election; drop Serve and Replica.Addr")
		}
		if cfg.ReplAddrs[cfg.Elect.Self] == "" {
			return nil, fmt.Errorf("repl: Elect.Self %q has no replication address in ReplAddrs", cfg.Elect.Self)
		}
	}
	if cfg.Listen == nil {
		cfg.Listen = func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	cfg.DB.Coalesce = !role.Follows() && role != RoleIdle
	db, err := strip.Open(cfg.DB)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, db: db, logf: cfg.Elect.Logf, role: role}
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	if cfg.Schema != nil && !role.Follows() {
		err = cfg.Schema(db)
	}
	if err == nil && role == RoleIdle {
		err = n.startElect()
	} else if err == nil {
		err = n.startStatic()
	}
	if err != nil {
		return nil, errors.Join(err, n.Close())
	}
	return n, nil
}

// startRole is the role a configuration starts in; a static node's
// never changes.
func startRole(cfg NodeConfig) Role {
	serves, follows := cfg.Serve != "", cfg.Replica.Addr != ""
	switch {
	case cfg.Elect.Self != "":
		return RoleIdle
	case serves && follows:
		return RoleRelay
	case serves:
		return RolePrimary
	case follows:
		return RoleReplica
	}
	return RoleStandalone
}

// startStatic serves and follows as configured.
func (n *Node) startStatic() error {
	if n.cfg.Serve != "" {
		if err := n.serve(n.cfg.Serve); err != nil {
			return err
		}
	}
	if n.cfg.Replica.Addr != "" {
		return n.follow(n.cfg.Replica.Addr)
	}
	return nil
}

// startElect starts the election node on its listener, then the loop
// that obeys its decisions.
func (n *Node) startElect() error {
	ecfg := n.cfg.Elect
	ecfg.FS = n.cfg.DB.FS
	ecfg.Metrics = n.cfg.DB.Metrics
	el, err := elect.NewNode(ecfg)
	if err != nil {
		return err
	}
	n.el = el
	ln, err := n.cfg.Listen(ecfg.Self)
	if err != nil {
		return err
	}
	go el.Serve(ln)
	if reg := ecfg.Metrics; reg != nil {
		reg.GaugeFunc("strip_failover_is_primary",
			"1 when this node is the elected primary, else 0", func() float64 {
				if role, _ := n.Role(); role == RolePrimary {
					return 1
				}
				return 0
			})
		reg.GaugeFunc("strip_failover_epoch",
			"epoch of the last applied election decision (0 while idle)", func() float64 {
				_, epoch := n.Role()
				return float64(epoch)
			})
	}
	n.stop, n.done = make(chan struct{}), make(chan struct{})
	go n.run()
	return nil
}

// DB returns the node's database.
func (n *Node) DB() *strip.DB { return n.db }

// Role returns the current role and the epoch of the election decision
// that produced it (zero on a static node and while idle).
func (n *Node) Role() (Role, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.epoch
}

// Conflicts returns the double-decides the election node observed
// (see elect.Node.Conflicts); nil on a static node.
func (n *Node) Conflicts() []string {
	if n.el == nil {
		return nil
	}
	return n.el.Conflicts()
}

// Close stops the node in process-death order — the decision loop,
// the election node, the replica, the primary and its listener — and
// closes the database.
func (n *Node) Close() error {
	if !n.markClosed() {
		return nil
	}
	if n.done != nil {
		close(n.stop)
		<-n.done
	}
	if n.el != nil {
		n.el.Close()
	}
	n.stopSides()
	return n.db.Close()
}

// markClosed flips closed and reports whether this call did the flip.
func (n *Node) markClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.closed = true
	return true
}

// stopSides detaches and closes whichever sides are live: replica,
// then primary, then its listener (closed here too in case Serve had
// not adopted it yet). It reports whether a primary was serving.
func (n *Node) stopSides() (wasPrimary bool) {
	n.mu.Lock()
	p, ln, r := n.primary, n.ln, n.replica
	n.primary, n.ln, n.replica = nil, nil, nil
	n.mu.Unlock()
	if r != nil {
		r.Close()
	}
	if p != nil {
		p.Close()
	}
	if ln != nil {
		ln.Close()
	}
	return p != nil
}

// sideMetrics is the registry the Primary and Replica register into:
// a static node's, and none for an election member, which can be
// promoted and demoted many times over one process lifetime and would
// register the same names again each time.
func (n *Node) sideMetrics() *obs.Registry {
	if n.el != nil {
		return nil
	}
	return n.cfg.DB.Metrics
}

// serve opens the replication listener on addr and starts a Primary
// on it.
func (n *Node) serve(addr string) error {
	ln, err := n.cfg.Listen(addr)
	if err != nil {
		return err
	}
	pcfg := n.cfg.Primary
	pcfg.Metrics = n.sideMetrics()
	p := NewPrimary(n.db, pcfg)
	if !n.adopt(p, ln, nil) {
		p.Close()
		ln.Close()
		return fmt.Errorf("repl: node closed")
	}
	go func() {
		if err := p.Serve(ln); err != nil && pcfg.Logf != nil {
			pcfg.Logf("repl: primary serve: %v", err)
		}
	}()
	return nil
}

// follow starts a Replica of the stream at addr.
func (n *Node) follow(addr string) error {
	dial := n.cfg.Dial
	rcfg := n.cfg.Replica
	rcfg.Addr = addr
	rcfg.Dial = func() (net.Conn, error) { return dial(addr) }
	rcfg.Metrics = n.sideMetrics()
	rcfg.resetSnapshots = n.el != nil
	r, err := StartReplica(n.db, rcfg)
	if err != nil {
		return err
	}
	if !n.adopt(nil, nil, r) {
		r.Close()
		return fmt.Errorf("repl: node closed")
	}
	return nil
}

// adopt stores a started side, unless the node closed while it was
// being built (the caller then closes it).
func (n *Node) adopt(p *Primary, ln net.Listener, r *Replica) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	if p != nil {
		n.primary, n.ln = p, ln
	}
	if r != nil {
		n.replica = r
	}
	return true
}

// run is an election member's decision loop.
func (n *Node) run() {
	defer close(n.done)
	for {
		select {
		case <-n.stop:
			return
		case d := <-n.el.Observe():
			n.apply(d)
		}
	}
}

// apply executes one decision. Decisions arrive in increasing epoch
// order from one node, but a decision at or below the last applied
// epoch is skipped defensively — replaying a role change for an old
// epoch could demote a legitimately promoted primary.
func (n *Node) apply(d elect.Decision) {
	self, alreadyPrimary, ok := n.admit(d)
	if !ok {
		return
	}
	switch {
	case alreadyPrimary:
		// Re-elected with a higher epoch (e.g. after a partition the
		// quorum re-confirmed us). Adopt the epoch; the running
		// Primary picks it up on the next handshake, and every
		// follower from the old epoch re-bootstraps.
		if err := n.db.AdoptReplicationEpoch(d.Epoch); err != nil {
			n.logf("repl: failover epoch adoption failed: %v", err)
		}
		n.setRole(RolePrimary, d.Epoch)
	case self:
		n.promote(d)
	default:
		n.repoint(d)
	}
}

// admit records a decision's epoch and reports how to act on it: self
// means this node won, alreadyPrimary that it was already serving. ok
// is false for a stale decision or a closed node.
func (n *Node) admit(d elect.Decision) (self, alreadyPrimary, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || d.Epoch <= n.epoch {
		return false, false, false
	}
	self = d.Leader == n.cfg.Elect.Self
	alreadyPrimary = self && n.primary != nil
	n.epoch = d.Epoch
	return self, alreadyPrimary, true
}

// promote makes this node the primary for the decided epoch: stop
// following, adopt the minted epoch, serve the stream.
func (n *Node) promote(d elect.Decision) {
	n.stopSides()
	if err := n.db.AdoptReplicationEpoch(d.Epoch); err != nil {
		n.logf("repl: failover epoch adoption failed: %v", err)
		return
	}
	// Make the promoted state durable under the new epoch before
	// serving it: recovery then replays what the followers will see.
	if err := n.db.Checkpoint(); err != nil {
		n.logf("repl: post-promotion checkpoint failed: %v", err)
	}
	if err := n.serve(n.cfg.ReplAddrs[n.cfg.Elect.Self]); err != nil {
		n.logf("repl: promotion failed: %v", err)
		return
	}
	n.logf("repl: promoted to primary for epoch %d", d.Epoch)
	n.setRole(RolePrimary, d.Epoch)
}

// repoint follows the decided leader, demoting this node first if it
// was the primary. The replica starts with a cold cursor and resets on
// snapshots, so its first frame is a snapshot that replaces — not
// merges into — the local state.
func (n *Node) repoint(d elect.Decision) {
	if n.stopSides() {
		n.logf("repl: demoted: epoch %d belongs to %s", d.Epoch, d.Leader)
	}
	addr := n.cfg.ReplAddrs[d.Leader]
	if addr == "" {
		n.logf("repl: no replication address for leader %s", d.Leader)
		return
	}
	if err := n.follow(addr); err != nil {
		n.logf("repl: failover replica start failed: %v", err)
		return
	}
	n.setRole(RoleReplica, d.Epoch)
}

// setRole records and announces a transition.
func (n *Node) setRole(role Role, epoch uint64) {
	n.mu.Lock()
	n.role = role
	n.mu.Unlock()
	if n.cfg.OnRole != nil {
		n.cfg.OnRole(role, epoch)
	}
}
