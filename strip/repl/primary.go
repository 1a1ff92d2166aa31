package repl

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/strip"
	"repro/strip/obs"
)

// PrimaryConfig configures the publishing side.
type PrimaryConfig struct {
	// RingFrames bounds the in-memory frame log. A replica that falls
	// further behind than this is re-bootstrapped with a snapshot.
	// Default 4096. A held frame costs its wire bytes (the payload plus
	// 8) and a 4-byte index entry, in 64 KiB chunks allocated as the
	// stream fills them; nothing is allocated in proportion to
	// RingFrames itself.
	RingFrames int
	// Metrics, when set, registers the primary's series (events
	// captured, snapshots served, live connections) into the registry —
	// typically the same one the database registers into.
	Metrics *obs.Registry
	// Logf receives connection-level diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Primary publishes a database's replication stream. It attaches to
// the database as its replication sink, keeps the bounded frame ring,
// and serves the frame protocol to replicas:
//
//	replica → primary:  one text line, "RESUME <seq> <epoch>" (the
//	                    highest sequence the replica holds and the
//	                    epoch of the history it came from; "RESUME 0 0"
//	                    when cold) or "SNAPSHOT" (force a bootstrap)
//	primary → replica:  one text line, "EPOCH <epoch>" (the primary
//	                    database's replication epoch), then binary
//	                    frames (see AppendFrame), starting with a
//	                    snapshot frame when the replica's epoch is not
//	                    this database's or its sequence is not
//	                    resumable from the ring
//
// The epoch exchange is what makes resume safe across primary
// restarts: a restarted primary process numbers a brand-new history
// from zero, and without the epoch check a surviving replica whose
// old cursor happens to fall inside the new ring would silently
// splice two unrelated histories together. A cold replica presents
// epoch 0, which matches no database and therefore always bootstraps
// from a snapshot — including every bit of primary state that
// predates the stream (WAL-recovered data, installs before the
// Primary attached, views defined but never updated).
type Primary struct {
	db   *strip.DB
	ring *ring
	logf func(string, ...any)
	wg   sync.WaitGroup

	// events counts captured replication events, dropped the events
	// that could not be encoded (and so never reached the ring),
	// snapshots the bootstrap payloads served; all count whether or not
	// a registry is attached.
	events    *obs.Counter
	dropped   *obs.Counter
	snapshots *obs.Counter

	mu     sync.Mutex
	ln     net.Listener          // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu
}

// NewPrimary attaches a Primary to the database and starts capturing
// its replication stream. Call Serve to accept replicas and Close to
// detach.
func NewPrimary(db *strip.DB, cfg PrimaryConfig) *Primary {
	p := &Primary{
		db:        db,
		logf:      cfg.Logf,
		conns:     make(map[net.Conn]struct{}),
		events:    obs.NewCounter(),
		dropped:   obs.NewCounter(),
		snapshots: obs.NewCounter(),
	}
	if p.logf == nil {
		p.logf = func(string, ...any) {}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.CounterFunc("strip_repl_primary_events_total",
			"replication events captured into the frame ring", p.events.Value)
		reg.CounterFunc("strip_repl_primary_events_dropped_total",
			"replication events dropped as unencodable (oversized key or frame)", p.dropped.Value)
		reg.CounterFunc("strip_repl_primary_snapshots_total",
			"bootstrap snapshots served to replicas", p.snapshots.Value)
		reg.GaugeFunc("strip_repl_primary_connections",
			"live replica connections", func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return float64(len(p.conns))
			})
	}
	p.ring = newRing(cfg.RingFrames, db.Sequence()+1)
	db.SetReplicationSink(p.publish)
	return p
}

// publish is the database's replication sink: frame the event once,
// straight into the ring's tail chunk. It runs inside the database's
// write lock and must not call back into the database.
func (p *Primary) publish(ev strip.ReplEvent) {
	if err := p.ring.append(ev.Seq, func(dst []byte) ([]byte, error) {
		return appendEventFrame(dst, ev)
	}); err != nil {
		// An unencodable event (oversized key or frame) cannot be
		// replicated; drop it, counted. Replicas that resume across the
		// gap are re-bootstrapped by the ring reset.
		p.dropped.Inc()
		p.logf("repl: dropping unencodable event seq %d: %v", ev.Seq, err)
		return
	}
	p.events.Inc()
}

// Serve accepts replica connections on l until Close (returns nil) or
// the listener fails (returns the error). Run it on its own
// goroutine.
func (p *Primary) Serve(l net.Listener) error {
	if !p.register(l) {
		l.Close()
		return errRingClosed
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if p.isClosed() {
				return nil
			}
			return err
		}
		if !p.track(conn) {
			conn.Close()
			return nil
		}
		p.wg.Add(1)
		go p.serveConn(conn)
	}
}

// register adopts the listener, refusing when closed.
func (p *Primary) register(l net.Listener) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.ln = l
	return true
}

// isClosed reports whether Close has run.
func (p *Primary) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// track registers a live connection, refusing when closed.
func (p *Primary) track(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[conn] = struct{}{}
	return true
}

// untrack forgets a finished connection.
func (p *Primary) untrack(conn net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, conn)
}

// Close detaches from the database, stops the listener, disconnects
// every replica and waits for the connection handlers to exit.
func (p *Primary) Close() error {
	ln, conns, first := p.markClosed()
	if first {
		p.db.SetReplicationSink(nil)
		p.ring.close()
		if ln != nil {
			ln.Close()
		}
		for _, c := range conns {
			c.Close()
		}
	}
	p.wg.Wait()
	return nil
}

// markClosed flips the closed flag and hands back what Close must
// tear down; first reports whether this call was the one that closed.
func (p *Primary) markClosed() (ln net.Listener, conns []net.Conn, first bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, nil, false
	}
	p.closed = true
	conns = make([]net.Conn, 0, len(p.conns))
	for c := range p.conns { //striplint:ignore map-order-leak -- shutdown closes every conn; close order is not observable
		conns = append(conns, c)
	}
	return p.ln, conns, true
}

// serveConn speaks the frame protocol to one replica.
func (p *Primary) serveConn(conn net.Conn) {
	defer p.wg.Done()
	defer p.untrack(conn)

	from, epoch, err := readHandshake(conn)
	if err != nil {
		conn.Close()
		p.logf("repl: bad handshake from %v: %v", conn.RemoteAddr(), err)
		return
	}

	// Watchdog: the replica sends nothing after its handshake, so a
	// completed read means the peer hung up or the link died. Waking
	// the ring lets a handler blocked in awaitFrom on a quiet primary
	// exit now instead of lingering until the next append fails.
	var gone atomic.Bool
	watchdogDone := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		io.Copy(io.Discard, conn)
		gone.Store(true)
		p.ring.wake()
	}()
	defer func() { <-watchdogDone }()
	defer conn.Close()

	w := bufio.NewWriter(conn)
	if _, err := fmt.Fprintf(w, "EPOCH %d\n", p.db.ReplicationEpoch()); err != nil {
		return
	}
	// Per-connection scratch: snapshots are framed through frameScratch;
	// stream frames are already wire bytes in the ring, whose spans are
	// collected into spans and written as they are.
	var frameScratch []byte
	var spans [][]byte
	// A replica from a different history — a previous primary process,
	// or no history at all (epoch 0, cold) — cannot resume: its
	// sequence numbers describe a state this database never held.
	needSnapshot := epoch != p.db.ReplicationEpoch()
	for {
		if needSnapshot || !p.ring.resumable(from) {
			// Bootstrap with a consistent snapshot and resume the
			// stream right after the snapshot's sequence.
			needSnapshot = false
			snap := p.db.ReplicaSnapshot()
			payload, err := EncodeSnapshot(snap)
			if err != nil {
				p.logf("repl: snapshot encode failed: %v", err)
				return
			}
			if frameScratch, err = AppendFrame(frameScratch[:0], payload); err != nil {
				p.logf("repl: snapshot frame: %v", err)
				return
			}
			if _, err := w.Write(frameScratch); err != nil || w.Flush() != nil {
				return
			}
			p.snapshots.Inc()
			from = snap.Seq + 1
		}
		var n int
		spans, n, err = p.ring.awaitFrom(from, spans[:0], gone.Load)
		if err == errTooOld {
			continue // lapsed while waiting: snapshot again
		}
		if err != nil {
			return // ring closed or connection gone
		}
		for _, s := range spans {
			if _, err := w.Write(s); err != nil {
				return
			}
		}
		clear(spans) // hold no chunk past its last write
		if w.Flush() != nil {
			return
		}
		from += uint64(n)
	}
}

// readHandshake parses the replica's request line into the first
// sequence it wants and the epoch of the history that sequence came
// from. Epoch 0 — a cold replica, or an old-format "RESUME <seq>"
// line — matches no database and forces a snapshot.
func readHandshake(conn net.Conn) (from, epoch uint64, err error) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 256), 1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("connection closed before handshake")
	}
	fields := strings.Fields(strings.TrimSpace(sc.Text()))
	switch {
	case len(fields) == 1 && fields[0] == "SNAPSHOT":
		return 0, 0, nil
	case (len(fields) == 2 || len(fields) == 3) && fields[0] == "RESUME":
		last, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad RESUME sequence: %v", err)
		}
		if len(fields) == 3 {
			if epoch, err = strconv.ParseUint(fields[2], 10, 64); err != nil {
				return 0, 0, fmt.Errorf("bad RESUME epoch: %v", err)
			}
		}
		return last + 1, epoch, nil
	default:
		return 0, 0, fmt.Errorf("unknown handshake %q", strings.Join(fields, " "))
	}
}
