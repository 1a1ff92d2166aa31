package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/strip"
	"repro/strip/obs"
	"repro/strip/repl"
)

// probeSample is one observation made by a probe view's OnInstall
// hook: which update became visible, when, and how old it already was
// (now - Entry.Generated, the update's due time).
type probeSample struct {
	id      uint64
	at, age int64 // ns; at is Unix time
}

// probeSink collects probe samples in preallocated memory. It is
// written only by the scheduler goroutine of the database it hooks and
// read only after that database has closed.
type probeSink struct {
	samples     []probeSample
	overflow    int
	nonMonotone int
}

// hook returns the OnInstall function of one probe view.
func (p *probeSink) hook() func(strip.Entry) {
	var last int64
	return func(e strip.Entry) {
		now := time.Now().UnixNano()
		gen := e.Generated.UnixNano()
		if gen < last {
			p.nonMonotone++
		}
		last = gen
		if len(p.samples) == cap(p.samples) {
			p.overflow++
			return
		}
		p.samples = append(p.samples, probeSample{id: uint64(e.Value), at: now, age: now - gen})
	}
}

// engine is the system under test for one phase of a run, built only
// through the public API.
type engine struct {
	w  *workload
	in *inputs

	db  *strip.DB
	reg *obs.Registry
	// probes observes the primary; rprobes the replica (pipeline only).
	probes, rprobes probeSink
	derivedCalls    atomic.Int64

	// pipeline only
	walDir   string
	rdb      *strip.DB
	primary  *repl.Primary
	replica  *repl.Replica
	bootSeq  uint64 // the sequence the replica's bootstrap snapshot was cut at
	feedConn net.Conn
	feedAddr string
	feed     *lineWriter

	nextID uint64   // ids handed out so far (initial load included)
	loaded []uint64 // per view: the newest id the initial load offered
}

// engineOpts are the knobs a phase may turn; everything else comes
// from the workload.
type engineOpts struct {
	policy     strip.Policy
	traceDepth int // Config.TraceDepth; on in traced phases
	// probeBuf and rprobeBuf are the preallocated sample buffers of the
	// primary's and the replica's probe hooks.
	probeBuf, rprobeBuf []probeSample
	outDir              string
	// load is the size of the initial load in updates (at least one per
	// view).
	load int
}

// window bounds the updates in flight wherever the benchmark paces
// itself by the engine: the initial load of every workload and the
// closed-loop feeds.
const window = 1024

// buildEngine opens the database(s), defines views, hooks and derived
// views, connects the pipeline, and loads the database: o.load updates
// round-robin over the views through the workload's own feed path, at
// most `window` in flight, returning when every copy has settled them
// all. Its duration is setup_s.
func buildEngine(w *workload, in *inputs, o engineOpts) (e *engine, err error) {
	e = &engine{w: w, in: in, reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			e.close()
			e.removeWAL()
		}
	}()
	e.probes.samples = o.probeBuf[:0]
	cfg := strip.Config{
		Policy:     o.policy,
		MaxAge:     w.maxAge,
		OnStale:    strip.Warn,
		Metrics:    e.reg,
		TraceDepth: o.traceDepth,
	}
	if w.pipeline {
		if e.walDir, err = os.MkdirTemp(o.outDir, "wal-"); err != nil {
			return e, err
		}
		cfg.WALPath = filepath.Join(e.walDir, "wal")
	}
	if e.db, err = strip.Open(cfg); err != nil {
		return e, err
	}
	for i, name := range in.names {
		imp := strip.Low
		if i < w.high {
			imp = strip.High
		}
		if err = e.db.DefineView(name, imp); err != nil {
			return e, err
		}
		if i%probeEvery == 0 {
			if err = e.db.OnInstall(name, e.probes.hook()); err != nil {
				return e, err
			}
		}
	}
	for d, deps := range in.derived {
		err = e.db.DefineDerived(fmt.Sprintf("d%03d", d), deps, func(vals []float64) float64 {
			e.derivedCalls.Add(1)
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			return sum / float64(len(vals))
		})
		if err != nil {
			return e, err
		}
	}
	if w.pipeline {
		if err = e.connectPipeline(o); err != nil {
			return e, err
		}
	}

	// Initial load. Reads never see an empty view, "ready" means the
	// same thing on every workload, and set-up is mostly the engine's
	// own work on its feed path rather than a handful of goroutine
	// hand-offs, whose cost on a shared machine changes by the minute.
	e.loaded = make([]uint64, w.views)
	base := time.Now()
	for n := 0; n < max(o.load, w.views); n++ {
		view := n % w.views
		e.nextID++
		e.loaded[view] = e.nextID
		if err = e.offer(view, e.nextID, base.Add(time.Duration(n))); err != nil {
			return e, err
		}
		if n%64 == 63 {
			if err = e.pace(window - 64); err != nil {
				return e, err
			}
		}
	}
	err = e.pace(0)
	return e, err
}

// inFlight counts the updates offered that have not yet met their fate
// on the last copy the workload maintains: the replica on the
// pipeline, where everything offered since its bootstrap arrives as a
// stream frame.
func (e *engine) inFlight() int {
	db := e.db
	if e.rdb != nil {
		db = e.rdb
	}
	return int(e.nextID - settled(db.Stats()))
}

// pace hands over what the feed connection has buffered and waits
// until at most n updates are in flight; with n zero, also until the
// replica is level with the primary. It does not wait for installs:
// under MaxAge a load that a busy machine delays may expire.
func (e *engine) pace(n int) error {
	if e.feed != nil {
		if err := e.feed.flush(); err != nil {
			return err
		}
	}
	start := time.Now()
	for e.inFlight() > n || (n == 0 && e.rdb != nil && !e.replicaLevel()) {
		if time.Since(start) > 10*time.Second {
			return errTimeout
		}
		sleepUntil(time.Now().Add(50 * time.Microsecond))
	}
	return nil
}

// replicaLevel reports whether the replica has applied everything the
// primary has published. Every frame since the bootstrap is an update
// or a batch, and an update counts as received only once it has left
// the replica's ingest buffer, so the sum below also waits for that
// buffer to empty, which LastSeq alone does not.
func (e *engine) replicaLevel() bool {
	seq := e.db.Sequence()
	if e.replica.LastSeq() != seq {
		return false
	}
	rst := e.rdb.Stats()
	return rst.UpdatesReceived+rst.ReplBatchesApplied == seq-e.bootSeq && rst.QueueLen == 0 &&
		rst.UpdatesInstalled+rst.UpdatesSkipped == rst.UpdatesReceived
}

// connectPipeline starts the line-protocol listener, the replication
// primary and one replica on loopback, and dials the feed connection.
func (e *engine) connectPipeline(o engineOpts) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.feedAddr = ln.Addr().String()
	go e.db.Serve(ln) //nolint:errcheck // returns ErrClosed when the database closes

	// The ring holds more than a second of stream so a replica stall
	// shows up as lag, not as a snapshot re-bootstrap.
	e.primary = repl.NewPrimary(e.db, repl.PrimaryConfig{RingFrames: 1 << 18, Metrics: e.reg})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go e.primary.Serve(rln) //nolint:errcheck // returns nil on Close

	e.rprobes.samples = o.rprobeBuf[:0]
	// The replica runs no transactions: updates first, as stripd's own
	// replica example does.
	if e.rdb, err = strip.Open(strip.Config{Policy: strip.UpdatesFirst, OnStale: strip.Warn, TraceDepth: o.traceDepth}); err != nil {
		return err
	}
	// Defined up front so the hooks exist before the first frame; the
	// snapshot and the stream find the views already there.
	for i, name := range e.in.names {
		if err := e.rdb.DefineView(name, strip.Low); err != nil {
			return err
		}
		if i%probeEvery == 0 {
			if err := e.rdb.OnInstall(name, e.rprobes.hook()); err != nil {
				return err
			}
		}
	}
	if e.replica, err = repl.StartReplica(e.rdb, repl.ReplicaConfig{Addr: rln.Addr().String(), Seed: 1}); err != nil {
		return err
	}
	// Bootstrapped before the first update is offered, so everything
	// after it reaches the replica as stream frames.
	if err = waitFor(10*time.Second, func() bool { return e.rdb.Stats().ReplSnapshotsInstalled > 0 }); err != nil {
		return fmt.Errorf("replica bootstrap: %w", err)
	}
	e.bootSeq = e.replica.LastSeq()
	if e.feedConn, err = net.Dial("tcp", e.feedAddr); err != nil {
		return err
	}
	e.feed = newLineWriter(e.feedConn)
	return nil
}

// offer hands one update to the engine the way the workload's feed
// does: a protocol line on the pipeline, ApplyUpdate otherwise. The
// update's value is its id.
func (e *engine) offer(view int, id uint64, due time.Time) error {
	if e.feed != nil {
		return e.feed.update(e.in.names[view], due.UnixNano(), id)
	}
	return e.db.ApplyUpdate(strip.Update{Object: e.in.names[view], Value: float64(id), Generated: due})
}

// stateOf is the convergence fingerprint the repo's own replication
// tests use: the snapshot encoding with the sequence zeroed. Empty on
// an encoding error.
func stateOf(db *strip.DB) string {
	s := db.ReplicaSnapshot()
	s.Seq = 0
	b, err := repl.EncodeSnapshot(s)
	if err != nil {
		return ""
	}
	return string(b)
}

// settled counts the updates that have met their fate: installed,
// superseded, or lost to the ingest buffer, the queue's capacity or
// MaxAge.
func settled(st strip.Stats) uint64 {
	return st.UpdatesInstalled + st.UpdatesSkipped + lost(st)
}

var errTimeout = errors.New("timed out")

// waitFor polls cond until it holds or the limit passes: yielding for
// the first 2 ms, so that a short wait inside set-up is timed to the
// microsecond and not to a sleep's granularity, then every 200 µs.
func waitFor(limit time.Duration, cond func() bool) error {
	start := time.Now()
	for !cond() {
		switch waited := time.Since(start); {
		case waited > limit:
			return errTimeout
		case waited < 2*time.Millisecond:
			runtime.Gosched()
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// close tears the engine down, stopping every goroutine it started.
// The WAL stays on disk for the recovery check (see removeWAL). It is
// safe on a half-built engine and safe to call twice.
func (e *engine) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if e.feedConn != nil {
		keep(e.feedConn.Close())
		e.feedConn = nil
	}
	if e.replica != nil {
		keep(e.replica.Close())
	}
	if e.primary != nil {
		keep(e.primary.Close())
	}
	if e.rdb != nil {
		keep(e.rdb.Close())
	}
	if e.db != nil {
		keep(e.db.Close())
	}
	return first
}

// removeWAL deletes the pipeline's WAL directory.
func (e *engine) removeWAL() {
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}

// lineWriter formats feed lines of the Serve protocol into one
// buffered TCP connection without allocating per line.
type lineWriter struct {
	w   *bufio.Writer
	buf []byte
}

func newLineWriter(c net.Conn) *lineWriter {
	return &lineWriter{w: bufio.NewWriterSize(c, 64<<10), buf: make([]byte, 0, 64)}
}

// update writes "<object> <gen-unixnanos> <id>\n".
func (l *lineWriter) update(object string, genNanos int64, id uint64) error {
	b := append(l.buf[:0], object...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, genNanos, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, id, 10)
	b = append(b, '\n')
	l.buf = b
	_, err := l.w.Write(b)
	return err
}

func (l *lineWriter) flush() error { return l.w.Flush() }
