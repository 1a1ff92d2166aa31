package elect

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/strip/fault"
	"repro/strip/internal/frame"
	"repro/strip/obs"
)

// Config configures a Node.
type Config struct {
	// Self is this node's peer ID: the elect address its peers dial.
	Self string
	// Peers is the full fixed membership, Self included, in the same
	// order on every node (ballot uniqueness depends on the indices).
	Peers []string

	// Clock overrides the time source; nil means time.Now. Tests
	// inject it so the protocol's timers are theirs to script.
	Clock func() time.Time
	// Seed fixes the node's jitter and backoff sequence; a node's
	// protocol behavior is a deterministic function of Seed, Clock and
	// the message arrival order. Zero means 1.
	Seed uint64

	// Timing holds the protocol timeouts; zero fields take production
	// defaults.
	Timing Timing
	// TickEvery is the timer-advance cadence, bounding how stale the
	// protocol's view of the clock can be. Default ProbeInterval/4.
	TickEvery time.Duration

	// Dial overrides how peers are reached (tests wrap connections in
	// fault.ChaosConn or gate them with fault.Partition here). nil
	// means a plain TCP dial with IOTimeout.
	Dial func(addr string) (net.Conn, error)
	// IOTimeout bounds one message exchange's dial, read and write.
	// Default 1s.
	IOTimeout time.Duration

	// StatePath, when set, persists the node's durable ledger — the
	// promises and values it has accepted, the ballot rounds it has
	// spent, the decision it has learned — and restores it on
	// construction, so the node's consensus word survives its
	// crashes. Promises reach disk before the reply reaches the wire.
	// Empty means memory-only: fine for tests and scripted cores, but
	// a crash-restarted memory-only acceptor rejoins with amnesia and
	// can enable a double-decided epoch.
	StatePath string
	// FS is the filesystem StatePath lives on (tests inject
	// fault.MemFS to crash it deterministically); nil means the real
	// one.
	FS fault.FS

	// Metrics, when set, registers the node's series (decided epoch,
	// leadership, campaigns started, and the three loss counters:
	// corrupt inbound frames, outbound messages dropped on a full
	// queue, failed state-file writes) into the registry.
	Metrics *obs.Registry

	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Node runs the election engine over TCP. Inbound messages arrive on
// the listener given to Serve; outbound messages are sent over
// short-lived per-message connections by per-peer sender goroutines,
// so one dead peer never stalls the protocol for the rest. All engine
// state is behind mu; network I/O happens strictly outside it.
type Node struct {
	cfg   Config
	clock func() time.Time
	logf  func(string, ...any)

	mu   sync.Mutex
	core *core // guarded by mu
	ln   net.Listener
	// ln, closed: listener lifecycle, guarded by mu like repl.Primary.
	closed bool // guarded by mu

	// store is non-nil when StatePath is configured. persistMu
	// serializes state-file writes and orders them by version;
	// persisted is the highest version on disk, guarded by persistMu.
	store     fault.FS
	persistMu sync.Mutex
	persisted uint64 // guarded by persistMu

	events chan Decision
	sends  map[string]chan Msg // per-peer outbound queues (fixed at start)
	stop   chan struct{}
	wg     sync.WaitGroup

	// campaigns counts explicit Campaign calls; corrupt the peer
	// connections dropped on a frame that failed its checksum, had an
	// impossible length, ended inside a frame or did not decode;
	// dropped the outbound messages a full peer queue refused;
	// persistFailed the state-file writes that failed, suppressing
	// their replies. All count whether or not a registry is attached.
	campaigns     *obs.Counter
	corrupt       *obs.Counter
	dropped       *obs.Counter
	persistFailed *obs.Counter
}

// NewNode validates the configuration, builds the engine and starts
// the protocol timers and sender goroutines. Call Serve with a
// listener on the Self address to receive peer traffic, and Close to
// stop.
func NewNode(cfg Config) (*Node, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now //striplint:ignore nondeterminism-taint -- the shell's production default; tests and replays inject Config.Clock, and the core only sees instants the shell passes it
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = time.Second
	}
	var store fault.FS
	var restore *persistentState
	if cfg.StatePath != "" {
		store = cfg.FS
		if store == nil {
			store = fault.OS
		}
		st, err := loadState(store, cfg.StatePath)
		if err != nil {
			return nil, err
		}
		restore = st
	}
	c, err := newCore(cfg.Self, cfg.Peers, cfg.Seed, cfg.Timing, clock(), restore)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:           cfg,
		clock:         clock,
		logf:          cfg.Logf,
		core:          c,
		store:         store,
		events:        make(chan Decision, 64),
		sends:         make(map[string]chan Msg),
		stop:          make(chan struct{}),
		campaigns:     obs.NewCounter(),
		corrupt:       obs.NewCounter(),
		dropped:       obs.NewCounter(),
		persistFailed: obs.NewCounter(),
	}
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc("strip_elect_decided_epoch",
			"epoch of the latest decided election (0 before any decision)",
			func() float64 {
				_, epoch, ok := n.Leader()
				if !ok {
					return 0
				}
				return float64(epoch)
			})
		reg.GaugeFunc("strip_elect_is_leader",
			"1 while this node is the decided leader",
			func() float64 {
				leader, _, ok := n.Leader()
				if ok && leader == cfg.Self {
					return 1
				}
				return 0
			})
		reg.CounterFunc("strip_elect_campaigns_total",
			"explicit campaigns started on this node", n.campaigns.Value)
		reg.CounterFunc("strip_elect_corrupt_frames_total",
			"peer connections dropped on a corrupt frame (checksum, truncation, oversize, malformed payload)",
			n.corrupt.Value)
		reg.CounterFunc("strip_elect_dropped_messages_total",
			"outbound messages dropped on a full peer queue", n.dropped.Value)
		reg.CounterFunc("strip_elect_persist_failures_total",
			"state-file writes that failed (the replies they guarded were suppressed)",
			n.persistFailed.Value)
	}
	// Replay the restored decision to Observe so a failover manager
	// re-adopts its follower role across the restart — unless this
	// node itself was the recorded leader: it must not resume serving
	// a reign the quorum may have buried while it was down (the core
	// campaigns for a fresh epoch instead, and the outcome arrives on
	// Observe like any other decision).
	if restore != nil && restore.maxDecided != 0 && restore.leader != cfg.Self {
		n.events <- Decision{Epoch: restore.maxDecided, Leader: restore.leader}
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			continue
		}
		ch := make(chan Msg, 64)
		n.sends[p] = ch
		n.wg.Add(1)
		go n.sender(p, ch)
	}
	n.wg.Add(1)
	go n.tickLoop()
	return n, nil
}

// Self returns this node's peer ID.
func (n *Node) Self() string { return n.cfg.Self }

// Leader returns the current decided primary and its epoch; ok is
// false while no election has concluded.
func (n *Node) Leader() (leader string, epoch uint64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.Leader()
}

// Conflicts returns observed double-decides (see core.Conflicts);
// torture tests assert it stays empty.
func (n *Node) Conflicts() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.core.Conflicts()...)
}

// Observe returns the decision stream: every leader change, in
// strictly increasing epoch order. The channel is buffered; if a slow
// consumer lets it fill, the oldest decision is dropped — only the
// latest epoch matters to a failover consumer.
func (n *Node) Observe() <-chan Decision { return n.events }

// Campaign starts an election for the next epoch immediately instead
// of waiting out the failure detector. The outcome — which may name
// another node — arrives on Observe.
func (n *Node) Campaign() {
	n.campaigns.Inc()
	now := n.clock()
	n.mu.Lock()
	envs, decs := n.core.StartCampaign(now)
	st, ver := n.takeDirtyLocked()
	n.mu.Unlock()
	if !n.persist(st, ver) {
		envs = nil
	}
	n.dispatch(envs, decs)
}

// Serve accepts peer connections on l until Close (returns nil) or
// the listener fails (returns the error). Run it on its own
// goroutine.
func (n *Node) Serve(l net.Listener) error {
	if !n.register(l) {
		l.Close()
		return fmt.Errorf("elect: node closed")
	}
	defer n.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			if n.isClosed() {
				return nil
			}
			return err
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// register adopts the listener, refusing when closed. An adopted
// listener's accept loop counts in wg, so that Close's Wait never runs
// alongside the loop's Add for a connection accepted as the listener
// closed.
func (n *Node) register(l net.Listener) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.ln = l
	n.wg.Add(1)
	return true
}

// isClosed reports whether Close has run.
func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// Close stops the timers, the listener and the senders. The engine
// state remains readable (Leader, Conflicts) after Close.
func (n *Node) Close() error {
	ln, first := n.markClosed()
	if first {
		close(n.stop)
		if ln != nil {
			ln.Close()
		}
	}
	n.wg.Wait()
	return nil
}

// markClosed flips the closed flag, returning the listener and
// whether this call was the one that closed.
func (n *Node) markClosed() (net.Listener, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, false
	}
	n.closed = true
	return n.ln, true
}

// tickLoop advances the engine's timers on the configured cadence.
func (n *Node) tickLoop() {
	defer n.wg.Done()
	every := n.cfg.TickEvery
	if every <= 0 {
		every = n.cfg.Timing.withDefaults().ProbeInterval / 4
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			now := n.clock()
			n.mu.Lock()
			envs, decs := n.core.Tick(now)
			st, ver := n.takeDirtyLocked()
			n.mu.Unlock()
			if !n.persist(st, ver) {
				envs = nil
			}
			n.dispatch(envs, decs)
		}
	}
}

// serveConn reads one peer connection's frames and feeds them to the
// engine until EOF or a decode error (a corrupt frame drops the
// connection; the sender's next message redials).
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	conn.SetReadDeadline(n.clock().Add(n.cfg.IOTimeout))
	br := bufio.NewReader(conn)
	var buf []byte
	for {
		msg, b, err := readMsg(br, buf)
		buf = b
		if err != nil {
			if frame.Corrupt(err) {
				n.corrupt.Inc()
				n.logf("elect: dropping connection on corrupt frame: %v", err)
			}
			return
		}
		now := n.clock()
		n.mu.Lock()
		envs, decs := n.core.Step(now, msg)
		st, ver := n.takeDirtyLocked()
		n.mu.Unlock()
		if !n.persist(st, ver) {
			envs = nil
		}
		n.dispatch(envs, decs)
		conn.SetReadDeadline(n.clock().Add(n.cfg.IOTimeout))
	}
}

// readMsg reads and decodes one message through buf, the connection's
// reused frame buffer, and returns the buffer for the next call.
func readMsg(r io.Reader, buf []byte) (Msg, []byte, error) {
	payload, buf, err := frame.ReadBuf(r, buf, MaxFrame)
	if err != nil {
		return nil, buf, err
	}
	msg, err := Decode(payload)
	return msg, buf, err
}

// takeDirtyLocked snapshots the engine's unpersisted durable state
// (nil when clean or when no StatePath is configured). Must run under
// mu, in the same critical section as the engine call that may have
// dirtied it.
func (n *Node) takeDirtyLocked() (*persistentState, uint64) {
	if n.store == nil {
		return nil, 0
	}
	return n.core.takeDirtyState()
}

// persist writes st (at version ver) through the state file and
// reports whether the engine call's outbound messages may be sent: a
// promise or acceptance must be on disk before it is on the wire, so
// a failed write suppresses the envelopes (the decisions still
// propagate to Observe — they reflect quorum state that exists
// regardless of this node's disk). Concurrent calls race benignly:
// the durable state is monotone, so only the newest version needs to
// land, and older snapshots are discarded once it has.
func (n *Node) persist(st *persistentState, ver uint64) bool {
	if st == nil {
		return true
	}
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	if ver <= n.persisted {
		return true // a newer snapshot already reached disk
	}
	// The write holds persistMu on purpose: persistMu exists solely to serialize state-file writes; no protocol or engine path ever holds it.
	if err := saveState(n.store, n.cfg.StatePath, st); err != nil {
		n.persistFailed.Inc()
		n.logf("elect: persisting state to %s failed (suppressing replies): %v", n.cfg.StatePath, err)
		return false
	}
	n.persisted = ver
	return true
}

// dispatch queues outbound envelopes and publishes decisions, both
// outside the engine lock. A full peer queue drops the message —
// elections tolerate loss by design (timeouts re-drive the protocol),
// and blocking here would let one dead peer stall the engine.
func (n *Node) dispatch(envs []Envelope, decs []Decision) {
	for _, e := range envs {
		ch, ok := n.sends[e.To]
		if !ok {
			continue
		}
		select {
		case ch <- e.Msg:
		default:
			n.dropped.Inc()
			n.logf("elect: outbound queue to %s full, dropping %T", e.To, e.Msg)
		}
	}
	for _, d := range decs {
		for {
			select {
			case n.events <- d:
			default:
				// Drop the oldest so the newest epoch always lands.
				select {
				case <-n.events:
				default:
				}
				continue
			}
			break
		}
	}
}

// sender delivers one peer's outbound queue, one short-lived
// connection per message. Failures are dropped after logging: the
// protocol's timeouts own retry policy, not the transport.
func (n *Node) sender(peer string, ch chan Msg) {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case m := <-ch:
			if err := n.sendOne(peer, m); err != nil {
				n.logf("elect: send %T to %s failed: %v", m, peer, err)
			}
		}
	}
}

// sendOne encodes and writes one message to peer.
func (n *Node) sendOne(peer string, m Msg) error {
	payload, err := Encode(m)
	if err != nil {
		return err
	}
	conn, err := n.dialPeer(peer)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetWriteDeadline(n.clock().Add(n.cfg.IOTimeout))
	return frame.Write(conn, payload, MaxFrame)
}

// dialPeer reaches one peer using the configured dialer.
func (n *Node) dialPeer(peer string) (net.Conn, error) {
	if n.cfg.Dial != nil {
		return n.cfg.Dial(peer)
	}
	return net.DialTimeout("tcp", peer, n.cfg.IOTimeout)
}
