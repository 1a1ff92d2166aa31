package repl

import (
	"errors"
	"sync"
)

// Ring errors, returned by awaitFrom.
var (
	// errTooOld reports that the requested sequence has fallen off the
	// ring (or never existed here); the caller must bootstrap the
	// replica with a snapshot instead.
	errTooOld = errors.New("repl: sequence no longer in ring")
	// errRingClosed reports the primary shut down.
	errRingClosed = errors.New("repl: ring closed")
	// errConnGone reports the reader's connection died while it waited
	// for frames (see awaitFrom's gone parameter).
	errConnGone = errors.New("repl: connection lost while waiting")
)

// defaultChunkSize is the byte capacity of a ring chunk. A frame that
// does not fit in one gets a chunk of its own.
const defaultChunkSize = 64 << 10

// chunk is a run of consecutive wire-ready frames (len | payload |
// crc32, exactly what AppendFrame puts on the wire) stored back to
// back. Bytes below len(buf) are published and never written again;
// appends only fill buf's spare capacity.
type chunk struct {
	first uint64   // sequence of the chunk's first frame
	offs  []uint32 // offs[i] is where frame first+i starts in buf
	buf   []byte
}

// ring is the primary's bounded in-memory frame log: the most recent
// frames, indexed by their contiguous replication sequence, kept as
// wire bytes in append-only chunks. Writers append in sequence order;
// readers (one goroutine per replica connection) block on a condition
// variable until frames past their cursor exist, then receive byte
// spans that alias the chunks. Published bytes are immutable and
// chunks are never recycled — a chunk is dropped, and left to the GC,
// once every frame in it has fallen off — so readers write their spans
// without copying or holding the lock, even after the frames fall off.
type ring struct {
	// cond signals appends and close to blocked readers; it wraps mu
	// and is set once at construction.
	cond *sync.Cond
	// capacity bounds the number of frames held; chunkSize is the byte
	// capacity of a new chunk (tests shrink it to make frames span and
	// exceed chunks). Both are set once at construction.
	capacity  int
	chunkSize int

	mu     sync.Mutex
	chunks []*chunk // guarded by mu; oldest first, each holding ≥ 1 live frame
	count  int      // guarded by mu; frames held
	first  uint64   // guarded by mu; seq of the oldest frame held, valid when count > 0
	next   uint64   // guarded by mu; seq the next append is expected to carry
	closed bool     // guarded by mu
}

// newRing returns a ring holding up to capacity frames, expecting its
// first append to carry sequence next.
func newRing(capacity int, next uint64) *ring {
	if capacity <= 0 {
		capacity = 4096
	}
	r := &ring{capacity: capacity, chunkSize: defaultChunkSize, next: next}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// append stores one frame under sequence seq and wakes waiting
// readers. frame appends the frame's wire bytes to its argument and
// returns the extended slice; it is handed the tail chunk's spare
// capacity, so a frame that fits is encoded in place. It runs under
// the ring's lock and must only encode. When frame fails the ring is
// left as it was and the error returned. Out-of-order sequences reset
// the ring to start at seq: history that is no longer contiguous is
// useless for resume, and dropping it makes stale readers fall back to
// a snapshot. Appends after close are no-ops.
func (r *ring) append(seq uint64, frame func(dst []byte) ([]byte, error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	gap := r.count > 0 && seq != r.first+uint64(r.count)
	var tail *chunk
	if n := len(r.chunks); n > 0 && !gap {
		tail = r.chunks[n-1]
	}
	var free []byte
	if tail != nil {
		free = tail.buf[len(tail.buf):len(tail.buf):cap(tail.buf)]
	} else {
		free = make([]byte, 0, r.chunkSize)
	}
	out, err := frame(free)
	if err != nil {
		return err
	}
	if gap {
		clear(r.chunks)
		r.chunks, r.count = r.chunks[:0], 0
	}
	if r.count == 0 {
		r.first = seq
	}
	if tail != nil && cap(out) == cap(free) {
		// Encoded in place: publish it by extending the tail.
		tail.offs = append(tail.offs, uint32(len(tail.buf)))
		tail.buf = tail.buf[:len(tail.buf)+len(out)]
	} else {
		if tail != nil && len(out) < r.chunkSize {
			// It overflowed the tail into a fresh array of its own
			// size; move it to the head of a full-sized chunk.
			out = append(make([]byte, 0, r.chunkSize), out...)
		}
		hint := 16
		if n := len(r.chunks); n > 0 && len(r.chunks[n-1].offs) > hint {
			hint = len(r.chunks[n-1].offs)
		}
		offs := append(make([]uint32, 0, hint), 0)
		r.chunks = append(r.chunks, &chunk{first: seq, offs: offs, buf: out})
	}
	r.count++
	r.next = seq + 1
	if r.count > r.capacity {
		// Full: the oldest frame falls off, and its chunk with it once
		// the chunk holds no other live frame.
		r.first++
		r.count--
		if c := r.chunks[0]; r.first == c.first+uint64(len(c.offs)) {
			r.chunks[0] = nil
			r.chunks = r.chunks[1:]
		}
	}
	r.cond.Broadcast()
	return nil
}

// resumable reports whether a reader at sequence from (wanting from,
// from+1, ...) can be served from the ring without a snapshot.
func (r *ring) resumable(from uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return from == r.next
	}
	return from >= r.first && from <= r.first+uint64(r.count)
}

// awaitFrom appends to spans the wire bytes of every stored frame from
// sequence from onward — one contiguous span per chunk — and returns
// the extended slice with the number of frames it covers, blocking
// while none exist yet. Callers pass a reused slice (spans[:0]) so a
// wake allocates nothing. The spans alias the ring's immutable chunks
// and stay valid after the frames fall off. It returns errTooOld when
// from has fallen off the ring (snapshot required), errRingClosed
// after close, and errConnGone once gone reports true (a connection
// watchdog sets its flag and calls wake, so a reader on a quiet
// primary exits instead of lingering until the next append). A nil
// gone never cancels.
func (r *ring) awaitFrom(from uint64, spans [][]byte, gone func() bool) ([][]byte, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return spans, 0, errRingClosed
		}
		if gone != nil && gone() {
			return spans, 0, errConnGone
		}
		out, n, err := r.readLocked(from, spans)
		if err != nil || n > 0 {
			return out, n, err
		}
		r.cond.Wait()
	}
}

// readLocked is awaitFrom without the wait: it reports 0 frames and no
// error when from is the next sequence to be appended.
func (r *ring) readLocked(from uint64, spans [][]byte) ([][]byte, int, error) {
	end := r.first + uint64(r.count)
	switch {
	case r.count == 0:
		if from != r.next {
			return spans, 0, errTooOld
		}
		return spans, 0, nil
	case from < r.first || from > end:
		return spans, 0, errTooOld
	case from == end:
		return spans, 0, nil
	}
	// Caught-up readers want the tail, so search from the newest chunk.
	i := len(r.chunks) - 1
	for r.chunks[i].first > from {
		i--
	}
	for j, c := range r.chunks[i:] {
		start := 0
		if j == 0 {
			start = int(c.offs[from-c.first])
		}
		spans = append(spans, c.buf[start:len(c.buf):len(c.buf)])
	}
	return spans, int(end - from), nil
}

// close wakes every waiting reader with errRingClosed.
func (r *ring) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.cond.Broadcast()
}

// wake rouses every blocked reader so it re-checks its cancellation
// condition; readers whose condition still holds go back to waiting.
func (r *ring) wake() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cond.Broadcast()
}
