package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/strip"
	"repro/strip/internal/frame"
	"repro/strip/obs"
)

// ReplicaConfig configures the importing side.
type ReplicaConfig struct {
	// Addr is the primary's replication address, dialed with net.Dial
	// when Dial is nil.
	Addr string
	// Dial overrides how the primary is reached (tests inject pipes
	// and failure modes here).
	Dial func() (net.Conn, error)

	// BackoffBase and BackoffMax bound the reconnect delay (defaults
	// 50ms and 5s); Seed makes its ±20% jitter reproducible.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	Seed        uint64

	// OnFrame, when set, observes every applied frame in order (the
	// resume tests record the sequence history through it).
	OnFrame func(kind byte, seq uint64)
	// Metrics, when set, registers the replica's series (sessions
	// established, frames applied) into the registry.
	Metrics *obs.Registry
	// Logf receives connection-level diagnostics; nil discards them.
	Logf func(format string, args ...any)

	// resetSnapshots makes snapshots replace the local state wholesale
	// (db.ResetToSnapshot) instead of merging by generation. A Node
	// sets it on an elected follower: the new primary's history
	// supersedes everything local, including writes a deposed primary
	// accepted that never reached the quorum's chosen leader.
	resetSnapshots bool
}

// Replica keeps a database continuously fed from a primary: it dials,
// resumes the frame stream from the last applied sequence, feeds
// update frames through the database's normal scheduler path and
// batch frames through the committed-write path, and reconnects with
// exponential backoff when the stream breaks. The replica is the
// paper's imported materialized view: the primary is its external
// world and Stats.ReplicaLag* measures its freshness.
type Replica struct {
	db   *strip.DB
	cfg  ReplicaConfig
	logf func(string, ...any)

	// connects counts established sessions, frames the messages
	// applied, reconnects the dial attempts after the first (the
	// link's flap count), corrupt the sessions ended by a frame that
	// failed its checksum, was cut short, oversized or did not decode,
	// seqGaps the sessions ended by a hole in the sequence; all count
	// whether or not a registry is attached. attempts is the current
	// backoff streak: consecutive dial rounds without a single applied
	// frame.
	connects   *obs.Counter
	frames     *obs.Counter
	reconnects *obs.Counter
	corrupt    *obs.Counter
	seqGaps    *obs.Counter
	attempts   atomic.Int64

	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	lastSeq uint64   // guarded by mu; highest sequence applied
	epoch   uint64   // guarded by mu; history lastSeq belongs to (0 = none)
	conn    net.Conn // guarded by mu; live connection, if any
	closed  bool     // guarded by mu
}

// errSeqGap reports a hole in the stream; the replica reconnects and
// resumes, which either heals the stream or falls back to a snapshot.
var errSeqGap = errors.New("repl: sequence gap in stream")

// StartReplica connects db to a primary and starts the feed
// goroutine. Close stops it.
func StartReplica(db *strip.DB, cfg ReplicaConfig) (*Replica, error) {
	if cfg.Dial == nil && cfg.Addr == "" {
		return nil, fmt.Errorf("repl: ReplicaConfig needs Addr or Dial")
	}
	r := &Replica{
		db:         db,
		cfg:        cfg,
		logf:       cfg.Logf,
		connects:   obs.NewCounter(),
		frames:     obs.NewCounter(),
		reconnects: obs.NewCounter(),
		corrupt:    obs.NewCounter(),
		seqGaps:    obs.NewCounter(),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if r.logf == nil {
		r.logf = func(string, ...any) {}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.CounterFunc("strip_repl_replica_connects_total",
			"replication sessions established with a primary", r.connects.Value)
		reg.CounterFunc("strip_repl_replica_frames_total",
			"replication frames applied", r.frames.Value)
		reg.CounterFunc("strip_repl_reconnects_total",
			"re-dial attempts after the first replication session (link flaps)",
			r.reconnects.Value)
		reg.CounterFunc("strip_repl_replica_corrupt_frames_total",
			"replication sessions ended by a corrupt frame (checksum, truncation, oversize, malformed payload)",
			r.corrupt.Value)
		reg.CounterFunc("strip_repl_replica_seq_gaps_total",
			"replication sessions ended by a sequence gap in the stream", r.seqGaps.Value)
		reg.GaugeFunc("strip_repl_backoff_attempts",
			"consecutive dial rounds without an applied frame (current backoff streak)",
			func() float64 { return float64(r.attempts.Load()) })
	}
	go r.run()
	return r, nil
}

// Close stops the feed and waits for it to exit. It does not close
// the database.
func (r *Replica) Close() error {
	conn, first := r.markClosed()
	if first {
		close(r.stop)
		if conn != nil {
			conn.Close()
		}
	}
	<-r.done
	return nil
}

// markClosed flips the closed flag, returning the live connection (if
// any) and whether this call was the one that closed.
func (r *Replica) markClosed() (net.Conn, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, false
	}
	r.closed = true
	return r.conn, true
}

// LastSeq returns the highest replication sequence applied so far.
func (r *Replica) LastSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastSeq
}

// run is the feed loop: dial, stream, back off, repeat.
func (r *Replica) run() {
	defer close(r.done)
	seed := r.cfg.Seed
	if seed == 0 {
		seed = 1
	}
	bo := newBackoff(r.cfg.BackoffBase, r.cfg.BackoffMax, seed)
	first := true
	for {
		if r.isClosed() {
			return
		}
		if !first {
			r.reconnects.Inc()
		}
		first = false
		progressed := false
		conn, err := r.dial()
		if err == nil {
			r.connects.Inc()
			if r.stream(conn) > 0 {
				bo.reset()
				r.attempts.Store(0)
				progressed = true
			}
		} else {
			r.logf("repl: dial failed: %v", err)
		}
		if !progressed {
			r.attempts.Add(1)
		}
		if !r.sleep(bo.next()) {
			return
		}
	}
}

// dial reaches the primary.
func (r *Replica) dial() (net.Conn, error) {
	if r.cfg.Dial != nil {
		return r.cfg.Dial()
	}
	return net.Dial("tcp", r.cfg.Addr)
}

// isClosed reports whether Close has run.
func (r *Replica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// adopt records the live connection so Close can unblock reads;
// it refuses when already closed.
func (r *Replica) adopt(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conn = conn
	return true
}

// release forgets the connection after the stream ends.
func (r *Replica) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conn = nil
}

// sleep waits d or until Close, reporting whether to continue.
func (r *Replica) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.stop:
		return false
	}
}

// stream runs one session: handshake with the last applied sequence
// and its epoch, read the primary's epoch greeting, then apply frames
// until the connection breaks. It returns the number of frames
// applied.
func (r *Replica) stream(conn net.Conn) int {
	if !r.adopt(conn) {
		conn.Close()
		return 0
	}
	defer r.release()
	defer conn.Close()

	last, epoch := r.cursor()
	if _, err := fmt.Fprintf(conn, "RESUME %d %d\n", last, epoch); err != nil {
		return 0
	}
	br := bufio.NewReader(conn)
	connEpoch, err := readGreeting(br)
	if err != nil {
		r.logf("repl: bad greeting: %v", err)
		return 0
	}
	applied := 0
	var frameBuf []byte // reused by frame.ReadBuf; Decode copies out of it
	for {
		payload, buf, err := frame.ReadBuf(br, frameBuf, MaxFrame)
		frameBuf = buf
		if err != nil {
			// A transport error (reset, closed connection) is a link
			// failure, counted by reconnects, not a corrupt frame.
			if frame.Corrupt(err) {
				r.corrupt.Inc()
			}
			r.logStreamEnd(err, applied)
			return applied
		}
		msg, err := Decode(payload)
		if err != nil {
			r.corrupt.Inc()
			r.logf("repl: dropping connection on corrupt frame: %v", err)
			return applied
		}
		if err := r.apply(msg, connEpoch); err != nil {
			if errors.Is(err, errSeqGap) {
				r.seqGaps.Inc()
			}
			r.logf("repl: apply failed at seq %d: %v", msg.Seq(), err)
			return applied
		}
		applied++
		r.frames.Inc()
	}
}

// readGreeting parses the primary's "EPOCH <n>" line, reading at most
// greetingMax bytes so a garbage peer cannot make it buffer
// unboundedly.
func readGreeting(br *bufio.Reader) (uint64, error) {
	const greetingMax = 64
	var line []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if b == '\n' {
			break
		}
		if len(line) >= greetingMax {
			return 0, fmt.Errorf("repl: greeting line too long")
		}
		line = append(line, b)
	}
	s := strings.TrimSpace(string(line))
	rest, ok := strings.CutPrefix(s, "EPOCH ")
	if !ok {
		return 0, fmt.Errorf("repl: unexpected greeting %q", s)
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: bad greeting epoch: %v", err)
	}
	if epoch == 0 {
		return 0, fmt.Errorf("repl: primary sent zero epoch")
	}
	return epoch, nil
}

// logStreamEnd reports why a session ended, quietly for plain EOF.
func (r *Replica) logStreamEnd(err error, applied int) {
	if errors.Is(err, errRingClosed) {
		return
	}
	r.logf("repl: stream ended after %d frames: %v", applied, err)
}

// apply dispatches one message into the database, enforcing the
// sequence contract: snapshots rebase the cursor (and adopt the
// sending primary's epoch — the snapshot is the state its sequence
// numbers describe), updates and batches must extend it contiguously
// within the same epoch. Duplicates (a primary resending across a
// resume) are skipped without touching the database; gaps break the
// session so the resume handshake can heal it.
func (r *Replica) apply(msg Msg, connEpoch uint64) error {
	switch m := msg.(type) {
	case *SnapshotMsg:
		if r.cfg.resetSnapshots {
			// The reset is not WAL-logged and not checkpointed here:
			// replication stays ahead of durability by design. A node
			// that crashes before its next checkpoint recovers the old
			// history and rejoins through its Node's election, which
			// resets it again; a promotion checkpoints (Node.promote).
			if err := r.db.ResetToSnapshot(m.Snap); err != nil {
				return err
			}
		} else if err := r.db.InstallSnapshot(m.Snap); err != nil {
			return err
		}
		r.rebase(m.Snap.Seq, connEpoch)
		r.observe(KindSnapshot, m.Snap.Seq)
		return nil
	case *UpdateMsg:
		ok, err := r.admit(m.Sequence, connEpoch)
		if !ok {
			return err
		}
		if err := r.db.ApplyReplicated(strip.Update{
			Object:    m.Object,
			Value:     m.Value,
			Fields:    kvMap(m.Fields),
			Partial:   m.Partial,
			Generated: nanosGen(m.Generated),
		}, m.Importance); err != nil {
			return err
		}
		r.setLastSeq(m.Sequence)
		r.observe(KindUpdate, m.Sequence)
		return nil
	case *BatchMsg:
		ok, err := r.admit(m.Sequence, connEpoch)
		if !ok {
			return err
		}
		if err := r.db.ApplyReplicatedBatch(m.Writes); err != nil {
			return err
		}
		r.setLastSeq(m.Sequence)
		r.observe(KindBatch, m.Sequence)
		return nil
	default:
		return fmt.Errorf("%w: unexpected message %T", frame.ErrMalformed, msg)
	}
}

// admit checks the sequence contract for a stream frame carrying seq:
// ok reports whether the frame should be applied. A duplicate across a
// resume returns (false, nil) — skip without error; an epoch mismatch
// or sequence gap returns a session-breaking error. Taking the
// decision out of line (rather than wrapping each apply in a closure)
// keeps the per-frame path allocation-free.
func (r *Replica) admit(seq, connEpoch uint64) (bool, error) {
	last, epoch := r.cursor()
	if epoch != connEpoch {
		// The primary promised a snapshot first (our handshake epoch
		// cannot have matched); a stream frame before it would splice
		// another history onto our state.
		return false, fmt.Errorf("repl: stream frame from epoch %d before snapshot (cursor epoch %d)", connEpoch, epoch)
	}
	if seq <= last {
		return false, nil // duplicate across a resume; already applied
	}
	if seq != last+1 {
		return false, fmt.Errorf("%w: have %d, got %d", errSeqGap, last, seq)
	}
	return true, nil
}

// cursor returns the applied-sequence cursor and the epoch of the
// history it belongs to.
func (r *Replica) cursor() (lastSeq, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastSeq, r.epoch
}

// setLastSeq advances the applied-sequence cursor.
func (r *Replica) setLastSeq(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastSeq = seq
}

// rebase moves the cursor onto a snapshot's sequence and adopts the
// epoch of the history that sequence numbers.
func (r *Replica) rebase(seq, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastSeq = seq
	r.epoch = epoch
}

// observe feeds the OnFrame hook.
func (r *Replica) observe(kind byte, seq uint64) {
	if r.cfg.OnFrame != nil {
		r.cfg.OnFrame(kind, seq)
	}
}

// kvMap converts wire pairs to an attribute map.
func kvMap(kvs []strip.KeyValue) map[string]float64 {
	if len(kvs) == 0 {
		return nil
	}
	m := make(map[string]float64, len(kvs))
	for _, kv := range kvs {
		m[kv.Key] = kv.Value
	}
	return m
}
