package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/strip"
)

// stRefused extends strip.State in a txnRec: the transaction was due
// but no submitter was parked to take it, so it never reached Exec.
const stRefused = uint8(strip.Failed) + 1

// txnRec is one transaction as its client saw it. Times are ns; due is
// measured from the phase start, call/wait/ret from due, the rest are
// durations.
type txnRec struct {
	due     int64
	call    int64 // Exec called
	wait    int64 // Result.Started; 0 if the body never ran
	body    int64 // Started..Finished
	ret     int64 // Exec returned
	sync    int64 // inside db.Sync (pipeline)
	read    int64 // inside Tx.Read (traced phases only)
	compute int64 // spun in the body
	// durableBy is the pipeline client's deadline for the durable
	// answer (Exec and Sync both returned); 0 elsewhere, where the
	// engine's own verdict on the deadline stands.
	durableBy int64
	value     float64
	state     uint8
	stale     bool
}

// latency is due -> the client has its answer: Exec returned and, on
// the pipeline, Sync after it.
func (r *txnRec) latency() int64 { return r.ret + r.sync }

// overhead is what Exec cost beyond running the body.
func (r *txnRec) overhead() int64 { return r.ret - r.call - r.body }

// success is the paper's yardstick: committed by the deadline having
// read no stale view — and on the pipeline, durable by the deadline
// too, which the engine cannot judge because Sync comes after Exec.
func (r *txnRec) success() bool {
	return r.state == uint8(strip.Committed) && !r.stale && (r.durableBy == 0 || r.latency() <= r.durableBy)
}

// offerRec is the generator's side of one probe update (traced phases
// only): when it was generated (its due time, less its network delay
// if the workload has one) and when the call that handed it to the
// engine started and returned. ns from the phase start.
type offerRec struct {
	id              uint64
	gen, start, end int64
}

type txnJob struct {
	in  *txnIn
	due time.Time
}

// load drives one phase: one generator goroutine offering updates and
// dispatching due transactions, the submitters that execute them, and
// in traced phases a sampler.
type load struct {
	e      *engine
	w      *workload
	in     *inputs
	traced bool

	t0   time.Time
	end  time.Duration // the generator stops at t0+end
	stop atomic.Bool
	wg   sync.WaitGroup

	loaded  uint64        // ids the initial load had handed out when the phase began
	offered atomic.Uint64 // ids handed out, published once per burst
	apiErrs atomic.Uint64 // calls that returned an error no workload expects

	lastID   []uint64       // per view: newest id offered (generator-owned)
	lastGen  []atomic.Int64 // per view: newest generation offered (traced; sampler reads)
	offers   []offerRec     // traced
	lateness []int64        // per open-loop burst: last item handed over - due

	jobs chan txnJob
	recs []txnRec
	nrec atomic.Int64
	// synced is the pipeline's one client's record of what it made durable:
	// the last value per general key for which Sync returned nil.
	synced []float64

	// sampler output (traced)
	viewLag   []int64
	queueLens []int
	seqLagMax uint64
}

// newLoad preallocates everything a phase records; the engine is
// attached before start.
func newLoad(w *workload, in *inputs, traced bool, total time.Duration, probeCap int) *load {
	l := &load{w: w, in: in, traced: traced, end: total}
	secs := int(total/time.Second) + 2
	l.lastID = make([]uint64, w.views)
	l.recs = make([]txnRec, w.txnRate*secs*3/2)
	l.lateness = make([]int64, 0, secs*1000)
	l.jobs = make(chan txnJob)
	if w.pipeline {
		l.synced = make([]float64, w.generalKeys)
	}
	if traced {
		l.lastGen = make([]atomic.Int64, w.views)
		l.offers = make([]offerRec, 0, probeCap)
		l.viewLag = make([]int64, 0, secs*2000)
		l.queueLens = make([]int, 0, secs*100)
	}
	return l
}

// start launches the phase's goroutines; the phase clock starts here.
func (l *load) start() {
	l.t0 = time.Now()
	l.loaded = l.e.nextID
	l.offered.Store(l.loaded)
	copy(l.lastID, l.e.loaded)
	for i := 0; i < l.w.submitters; i++ {
		l.wg.Add(1)
		go l.submitter()
	}
	if l.traced {
		l.wg.Add(1)
		go l.sampler()
	}
	l.wg.Add(1)
	go l.generate()
}

// wait returns once every goroutine of the phase has exited.
func (l *load) wait() { l.wg.Wait() }

// generate is the one generator goroutine.
func (l *load) generate() {
	defer l.wg.Done()
	defer close(l.jobs)
	defer l.stop.Store(true)
	if l.w.inflight > 0 {
		l.closedLoop()
	} else {
		l.openLoop()
	}
}

// openLoop follows a schedule of 1 ms ticks that never slows down for
// the engine: a late tick is followed at once by the next. Every tick
// releases feedRate/1000 updates, all due at the tick, and the
// transactions due with it. An update's generation is its due time
// plus its index in the burst in ns (so generations differ), less its
// network delay where the workload has one.
func (l *load) openLoop() {
	burst := l.w.feedRate / 1000
	id := l.e.nextID
	ki, ti := 0, 0
	for tick := 0; ; tick++ {
		due := l.tickTime(tick)
		sleepUntil(due)
		if due.Sub(l.t0) >= l.end {
			return
		}
		first := len(l.offers)
		for j := 0; j < burst; j++ {
			view := int(l.in.keys[ki&(keySeqLen-1)])
			gen := due.Add(time.Duration(j))
			if l.in.delays != nil {
				gen = gen.Add(-time.Duration(l.in.delays[ki&(keySeqLen-1)]))
			}
			ki++
			id++
			l.offerOne(view, id, gen)
		}
		l.flushFeed(first)
		l.offered.Store(id)
		l.lateness = append(l.lateness, int64(time.Since(due)))
		ti = l.dispatch(tick, ti, due)
	}
}

func (l *load) tickTime(tick int) time.Time {
	return l.t0.Add(time.Duration(tick) * time.Millisecond)
}

// sleepUntil blocks the calling thread in the kernel until t. The
// runtime's own timers were several times less punctual on the
// 2-core machine this was sized on, and a generator that oversleeps
// idles the engine it is supposed to keep busy.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only shortens one sleep
	}
}

// closedLoop keeps at most w.inflight updates offered and not yet
// settled (installed, superseded or lost) on the last copy the workload
// maintains, reading the engine's own counters to learn what settled,
// so nothing is ever dropped and the offer rate is the install rate.
// Transactions stay on their 1 ms schedule.
func (l *load) closedLoop() {
	const batch = 64
	e := l.e
	ki, ti, tick := 0, 0, 0
	var lastGen time.Time
	for {
		now := time.Now()
		if now.Sub(l.t0) >= l.end {
			return
		}
		for ; !l.tickTime(tick).After(now); tick++ {
			ti = l.dispatch(tick, ti, l.tickTime(tick))
		}
		room := l.w.inflight - e.inFlight()
		if room <= 0 {
			sleepUntil(now.Add(50 * time.Microsecond))
			continue
		}
		// One clock reading stamps the batch; generations still rise
		// strictly so no update is unworthy of the one before.
		gen := now
		if !gen.After(lastGen) {
			gen = lastGen.Add(1)
		}
		n := min(room, batch)
		first := len(l.offers)
		for j := 0; j < n; j++ {
			view := int(l.in.keys[ki&(keySeqLen-1)])
			ki++
			e.nextID++
			l.offerOne(view, e.nextID, gen.Add(time.Duration(j)))
		}
		lastGen = gen.Add(time.Duration(n))
		l.flushFeed(first)
		l.offered.Store(e.nextID)
	}
}

// flushFeed hands a burst of lines to the feed connection; a line is
// handed over when its burst is flushed, so the offers recorded since
// `first` end now. It does nothing off the pipeline.
func (l *load) flushFeed(first int) {
	if l.e.feed == nil {
		return
	}
	if err := l.e.feed.flush(); err != nil {
		l.apiErrs.Add(1)
	}
	sent := int64(time.Since(l.t0))
	for i := first; i < len(l.offers); i++ {
		l.offers[i].end = sent
	}
}

// offerOne hands one update, generated at gen, to the engine. Traced
// phases time the call for probe updates; untraced ones read no clock
// here.
func (l *load) offerOne(view int, id uint64, gen time.Time) {
	l.lastID[view] = id
	var err error
	if l.traced && view%probeEvery == 0 {
		if g := gen.UnixNano(); g > l.lastGen[view].Load() {
			l.lastGen[view].Store(g) // the generator is its only writer
		}
		start := time.Since(l.t0)
		err = l.e.offer(view, id, gen)
		if len(l.offers) < cap(l.offers) {
			l.offers = append(l.offers, offerRec{id: id, gen: int64(gen.Sub(l.t0)), start: int64(start), end: int64(time.Since(l.t0))})
		}
	} else {
		err = l.e.offer(view, id, gen)
	}
	if err != nil {
		l.apiErrs.Add(1)
	}
}

// dispatch hands the transactions due at this tick to parked
// submitters. One that finds none parked is refused on the spot: an
// open-loop source does not wait.
func (l *load) dispatch(tick, ti int, due time.Time) int {
	for n := int(l.in.counts[tick&(countSeqLen-1)]); n > 0; n-- {
		j := txnJob{in: &l.in.txns[ti&(txnSeqLen-1)], due: due}
		ti++
		select {
		case l.jobs <- j:
		default:
			l.record(txnRec{due: int64(due.Sub(l.t0)), value: j.in.value, state: stRefused})
		}
	}
	return ti
}

func (l *load) record(r txnRec) {
	if i := int(l.nrec.Add(1)) - 1; i < len(l.recs) {
		l.recs[i] = r
	}
}

// records returns the transaction records once the phase has ended;
// ok is false if the preallocated space ran out.
func (l *load) records() (recs []txnRec, ok bool) {
	n := int(l.nrec.Load())
	if n > len(l.recs) {
		return l.recs, false
	}
	return l.recs[:n], true
}

// executor is one goroutine's transaction state: the body closure is
// made once and reads the current job from here.
type executor struct {
	l    *load
	cur  *txnIn
	seq  float64 // value written by Set: this executor's commit ordinal
	read int64
	spec strip.TxnSpec
}

func (l *load) newExecutor() *executor {
	x := &executor{l: l}
	x.spec.Func = x.body
	return x
}

func (x *executor) body(tx *strip.Tx) error {
	l, t := x.l, x.cur
	for i := 0; i < l.w.reads; i++ {
		name := l.in.names[t.reads[i]]
		if l.traced {
			start := time.Now()
			_, err := tx.Read(name)
			x.read += int64(time.Since(start))
			if err != nil {
				return err
			}
		} else if _, err := tx.Read(name); err != nil {
			return err
		}
	}
	if t.compute > 0 {
		for start := time.Now(); int64(time.Since(start)) < t.compute; {
		}
	}
	for i := 0; i < t.nsets; i++ {
		tx.Set(l.in.general[t.sets[i]], x.seq)
	}
	return nil
}

// run executes one transaction and records what the client saw.
func (x *executor) run(j txnJob) {
	l, t := x.l, j.in
	x.cur, x.read = t, 0
	x.seq++
	x.spec.Value = t.value
	x.spec.Estimate = time.Duration(t.compute)
	x.spec.Deadline = time.Time{}
	durableBy := int64(0)
	if l.w.slackMax > 0 {
		x.spec.Deadline = j.due.Add(time.Duration(t.compute + t.slack))
		if l.w.pipeline {
			durableBy = t.compute + t.slack
		}
	}
	call := time.Now()
	res := l.e.db.Exec(x.spec)
	ret := time.Now()

	r := txnRec{
		due: int64(j.due.Sub(l.t0)), call: int64(call.Sub(j.due)), ret: int64(ret.Sub(j.due)),
		read: x.read, durableBy: durableBy, value: t.value, state: uint8(res.State), stale: res.ReadStale,
	}
	if !res.Started.IsZero() {
		r.wait = int64(res.Started.Sub(j.due))
		r.body = int64(res.Finished.Sub(res.Started))
		r.compute = t.compute
	}
	if res.State == strip.Failed {
		l.apiErrs.Add(1)
	}
	if l.w.pipeline && res.Committed() {
		// Flush policy of the pipeline client: Sync after every commit.
		err := l.e.db.Sync()
		r.sync = int64(time.Since(ret))
		if err != nil {
			l.apiErrs.Add(1)
		} else {
			for i := 0; i < t.nsets; i++ {
				l.synced[t.sets[i]] = x.seq
			}
		}
	}
	l.record(r)
}

// submitter parks on the job channel until the generator closes it.
func (l *load) submitter() {
	defer l.wg.Done()
	x := l.newExecutor()
	for j := range l.jobs {
		x.run(j)
	}
}

// sampler runs in traced phases only. Every millisecond it reads two
// probe views' lag behind the newest generation offered for them, and
// the replica's sequence lag; every tenth, the queue length.
func (l *load) sampler() {
	defer l.wg.Done()
	probes := (l.w.views + probeEvery - 1) / probeEvery
	next := 0
	for tick := 0; !l.stop.Load(); tick++ {
		time.Sleep(time.Until(l.t0.Add(time.Duration(tick) * time.Millisecond)))
		for i := 0; i < 2; i++ {
			view := (next % probes) * probeEvery
			next++
			offered := l.lastGen[view].Load()
			e, err := l.e.db.Peek(l.in.names[view])
			if err != nil {
				l.apiErrs.Add(1)
			}
			// Two samples per tick, always, so a sample's index is its time.
			if len(l.viewLag) < cap(l.viewLag) {
				l.viewLag = append(l.viewLag, max(offered-e.Generated.UnixNano(), 0))
			}
		}
		if l.e.replica != nil {
			if p, r := l.e.db.Sequence(), l.e.replica.LastSeq(); p > r && p-r > l.seqLagMax {
				l.seqLagMax = p - r
			}
		}
		if tick%10 == 0 && len(l.queueLens) < cap(l.queueLens) {
			l.queueLens = append(l.queueLens, l.e.db.Stats().QueueLen)
		}
	}
}
