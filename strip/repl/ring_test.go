package repl

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// refRing is the resume ring as it was before it held wire bytes: one
// slot per payload in a circular [][]byte of capacity slots, framed by
// the connection on the way out. FuzzRingMatchesReference holds the
// chunked ring to it; here it stores whole frames (AppendFrame of the
// payload) so the two compare byte for byte.
type refRing struct {
	frames [][]byte // circular, frames[(head+i)%len]
	head   int
	count  int
	first  uint64 // seq of frames[head], valid when count > 0
	next   uint64 // seq the next append is expected to carry
}

func newRefRing(capacity int, next uint64) *refRing {
	return &refRing{frames: make([][]byte, capacity), next: next}
}

func (r *refRing) append(seq uint64, frame []byte) {
	if r.count > 0 && seq != r.first+uint64(r.count) {
		r.head, r.count = 0, 0
	}
	if r.count == 0 {
		r.first = seq
	}
	if r.count == len(r.frames) {
		r.frames[r.head] = nil
		r.head = (r.head + 1) % len(r.frames)
		r.first++
		r.count--
	}
	r.frames[(r.head+r.count)%len(r.frames)] = frame
	r.count++
	r.next = seq + 1
}

func (r *refRing) resumable(from uint64) bool {
	if r.count == 0 {
		return from == r.next
	}
	return from >= r.first && from <= r.first+uint64(r.count)
}

// read is the old awaitFrom without the wait: no frames and no error
// where that would block.
func (r *refRing) read(from uint64) ([][]byte, error) {
	if r.count == 0 {
		if from != r.next {
			return nil, errTooOld
		}
		return nil, nil
	}
	if from < r.first || from > r.first+uint64(r.count) {
		return nil, errTooOld
	}
	var out [][]byte
	for i := int(from - r.first); i < r.count; i++ {
		out = append(out, r.frames[(r.head+i)%len(r.frames)])
	}
	return out, nil
}

// framed is the ring append argument that frames payload.
func framed(payload []byte) func([]byte) ([]byte, error) {
	return func(dst []byte) ([]byte, error) { return AppendFrame(dst, payload) }
}

func fill(t *testing.T, r *ring, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := r.append(seq, framed([]byte{byte(seq)})); err != nil {
			t.Fatalf("append(%d): %v", seq, err)
		}
	}
}

// payloads splits awaitFrom's spans back into the n payloads they
// carry, failing unless they hold exactly n well-formed frames.
func payloads(t *testing.T, spans [][]byte, n int) [][]byte {
	t.Helper()
	br := bytes.NewReader(bytes.Join(spans, nil))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		p, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i, n, err)
		}
		out = append(out, p)
	}
	if br.Len() != 0 {
		t.Fatalf("%d bytes past the %d frames awaitFrom counted", br.Len(), n)
	}
	return out
}

func TestRingAwaitFrom(t *testing.T) {
	r := newRing(8, 1)
	fill(t, r, 1, 5)
	spans, n, err := r.awaitFrom(1, nil, nil)
	if err != nil {
		t.Fatalf("awaitFrom(1): %v", err)
	}
	frames := payloads(t, spans, n)
	if len(frames) != 5 {
		t.Fatalf("awaitFrom(1) returned %d frames, want 5", len(frames))
	}
	for i, f := range frames {
		if f[0] != byte(i+1) {
			t.Fatalf("frame %d carries %d, want %d", i, f[0], i+1)
		}
	}
	if _, n, err = r.awaitFrom(4, spans[:0], nil); err != nil || n != 2 {
		t.Fatalf("awaitFrom(4) = %d frames, %v; want 2, nil", n, err)
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := newRing(3, 1)
	fill(t, r, 1, 5)
	if r.resumable(2) {
		t.Errorf("sequence 2 still resumable after falling off a 3-frame ring")
	}
	if !r.resumable(3) {
		t.Errorf("sequence 3 not resumable; ring should hold 3..5")
	}
	if _, _, err := r.awaitFrom(1, nil, nil); !errors.Is(err, errTooOld) {
		t.Errorf("awaitFrom(1) = %v, want errTooOld", err)
	}
	spans, n, err := r.awaitFrom(3, nil, nil)
	if err != nil || n != 3 {
		t.Fatalf("awaitFrom(3) = %d frames, %v; want 3, nil", n, err)
	}
	if frames := payloads(t, spans, n); frames[0][0] != 3 || frames[2][0] != 5 {
		t.Errorf("ring kept wrong window: %d..%d, want 3..5", frames[0][0], frames[2][0])
	}
}

func TestRingResumableEmpty(t *testing.T) {
	r := newRing(4, 10)
	if !r.resumable(10) {
		t.Errorf("empty ring must accept its expected next sequence")
	}
	if r.resumable(9) || r.resumable(11) {
		t.Errorf("empty ring must reject anything but its expected next sequence")
	}
}

func TestRingOutOfOrderResets(t *testing.T) {
	r := newRing(8, 1)
	fill(t, r, 1, 3)
	fill(t, r, 10, 10) // gap: history no longer contiguous
	if r.resumable(1) {
		t.Errorf("pre-gap sequence still resumable after reset")
	}
	spans, n, err := r.awaitFrom(10, nil, nil)
	if err != nil || n != 1 || payloads(t, spans, n)[0][0] != 10 {
		t.Fatalf("awaitFrom(10) after reset = %d frames, %v; want frame 10", n, err)
	}
}

func TestRingBlocksUntilAppend(t *testing.T) {
	r := newRing(8, 1)
	fill(t, r, 1, 2)
	type result struct {
		spans [][]byte
		n     int
		err   error
	}
	done := make(chan result, 1)
	go func() {
		spans, n, err := r.awaitFrom(3, nil, nil) // nothing there yet: blocks
		done <- result{spans, n, err}
	}()
	select {
	case res := <-done:
		t.Fatalf("awaitFrom(3) returned early: %d frames, %v", res.n, res.err)
	case <-time.After(20 * time.Millisecond):
	}
	fill(t, r, 3, 3)
	select {
	case res := <-done:
		if res.err != nil || res.n != 1 || payloads(t, res.spans, res.n)[0][0] != 3 {
			t.Fatalf("awaitFrom(3) woke with %d frames, %v; want frame 3", res.n, res.err)
		}
	case <-time.After(time.Second):
		t.Fatalf("awaitFrom(3) still blocked after append")
	}
}

func TestRingCloseWakesReaders(t *testing.T) {
	r := newRing(8, 1)
	done := make(chan error, 1)
	go func() {
		_, _, err := r.awaitFrom(1, nil, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.close()
	select {
	case err := <-done:
		if !errors.Is(err, errRingClosed) {
			t.Fatalf("awaitFrom after close = %v, want errRingClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatalf("close did not wake the blocked reader")
	}
	fill(t, r, 1, 1) // must be a no-op, not a panic
	if _, _, err := r.awaitFrom(1, nil, nil); !errors.Is(err, errRingClosed) {
		t.Errorf("closed ring accepted a read")
	}
}

// ringPayload is the payload the ring tests store under seq: its
// length (1 .. 3*chunk) comes from size, its bytes from seq, so a frame
// served under the wrong sequence cannot compare equal.
func ringPayload(seq uint64, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(seq) + byte(i)
	}
	return p
}

// Ring fuzz scripts: three header bytes — capacity 1+b%64, chunk size
// 16+b%64, first expected sequence — then (op, arg) pairs. op%4 is 0
// for an append at the expected sequence, 1 for one at an offset
// (op>>2)%16-8 from it (a gap, or a sequence going backwards), 2 for a
// read and 3 for a resumable probe. An append's arg sets the payload
// size 1+arg%(3*chunk); a probe's arg picks the cursor
// base-12+arg%(count+24), base being the oldest sequence held (the
// expected one when empty), so cursors land too old, inside, at the
// tail and past it.
const (
	ringOpAppend, ringOpGap, ringOpRead, ringOpResumable = 0, 1, 2, 3
	ringCursorBack                                       = 12
)

// ringSeeds are the five ring tests above as fuzz scripts.
var ringSeeds = [][]byte{
	// TestRingAwaitFrom: capacity 8, fill 1..5, read from 1 and from 4.
	{7, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ringOpRead, 12, ringOpRead, 15},
	// TestRingOverflowDropsOldest: capacity 3, fill 1..5, probe 2 and 3,
	// read from 1 and from 3.
	{2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ringOpResumable, 11, ringOpResumable, 12, ringOpRead, 10, ringOpRead, 12},
	// TestRingResumableEmpty: capacity 4 expecting 10; probe 10, 9, 11.
	{3, 0, 10, ringOpResumable, 12, ringOpResumable, 11, ringOpResumable, 13},
	// TestRingOutOfOrderResets: fill 1..3, append 10, probe 1, read 10.
	{7, 0, 1, 0, 0, 0, 0, 0, 0, 14<<2 | ringOpGap, 0, ringOpResumable, 3, ringOpRead, 12},
	// TestRingBlocksUntilAppend: fill 1..2, read 3 at the tail, append 3,
	// read 3.
	{7, 0, 1, 0, 0, 0, 0, ringOpRead, 14, 0, 0, ringOpRead, 14},
}

// FuzzRingMatchesReference drives the chunked ring and refRing through
// the same script (see ringSeeds) and, after every step, requires the
// same frames — the concatenated spans equal to the reference's frames
// back to back — the same counts, errors and resumable answers, and
// that every chunk still held carries a live frame.
func FuzzRingMatchesReference(f *testing.F) {
	for _, s := range ringSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 3 {
			return
		}
		capacity := 1 + int(script[0])%64
		chunk := 16 + int(script[1])%64
		// Far from zero, so sequences going backwards never wrap.
		next := 1<<32 + uint64(script[2])
		r := newRing(capacity, next)
		r.chunkSize = chunk
		ref := newRefRing(capacity, next)
		ops := script[3:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 4 {
			case ringOpAppend, ringOpGap:
				seq := ref.next
				if op%4 == ringOpGap {
					seq = seq + uint64(int(op>>2)%16) - 8
				}
				payload := ringPayload(seq, 1+int(arg)%(3*chunk))
				frame, err := AppendFrame(nil, payload)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.append(seq, framed(payload)); err != nil {
					t.Fatalf("step %d: append(%d): %v", i/2, seq, err)
				}
				ref.append(seq, frame)
			case ringOpRead:
				compareRing(t, i/2, r, ref, ringCursor(ref, arg))
			case ringOpResumable:
				from := ringCursor(ref, arg)
				if got, want := r.resumable(from), ref.resumable(from); got != want {
					t.Fatalf("step %d: resumable(%d) = %v, reference %v", i/2, from, got, want)
				}
			}
			compareRing(t, i/2, r, ref, ringCursor(ref, ringCursorBack))
			checkChunks(t, i/2, r)
		}
	})
}

// ringCursor maps a script byte to a read cursor around ref's window.
func ringCursor(ref *refRing, arg byte) uint64 {
	base := ref.next
	if ref.count > 0 {
		base = ref.first
	}
	return base - ringCursorBack + uint64(int(arg)%(ref.count+2*ringCursorBack))
}

// compareRing reads from both rings at from: through awaitFrom where
// the reference would not block, through readLocked where it would.
func compareRing(t *testing.T, step int, r *ring, ref *refRing, from uint64) {
	t.Helper()
	want, wantErr := ref.read(from)
	var spans [][]byte
	var n int
	var err error
	if wantErr != nil || len(want) > 0 {
		spans, n, err = r.awaitFrom(from, nil, nil)
	} else {
		r.mu.Lock()
		spans, n, err = r.readLocked(from, nil)
		r.mu.Unlock()
	}
	if err != wantErr {
		t.Fatalf("step %d: read from %d: error %v, reference %v", step, from, err, wantErr)
	}
	if n != len(want) {
		t.Fatalf("step %d: read from %d: %d frames, reference %d", step, from, n, len(want))
	}
	if got, want := bytes.Join(spans, nil), bytes.Join(want, nil); !bytes.Equal(got, want) {
		t.Fatalf("step %d: read from %d: spans differ from the reference's frames\n got %x\nwant %x", step, from, got, want)
	}
}

// checkChunks asserts the chunk list's shape: contiguous sequences,
// and no chunk kept whose frames have all fallen off.
func checkChunks(t *testing.T, step int, r *ring) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if (r.count == 0) != (len(r.chunks) == 0) {
		t.Fatalf("step %d: %d frames held in %d chunks", step, r.count, len(r.chunks))
	}
	if r.count == 0 {
		return
	}
	if c := r.chunks[0]; r.first < c.first || r.first >= c.first+uint64(len(c.offs)) {
		t.Fatalf("step %d: oldest chunk holds %d..%d, oldest live frame is %d", step, c.first, c.first+uint64(len(c.offs))-1, r.first)
	}
	for i := 1; i < len(r.chunks); i++ {
		prev, c := r.chunks[i-1], r.chunks[i]
		if c.first != prev.first+uint64(len(prev.offs)) {
			t.Fatalf("step %d: chunk %d starts at %d after a chunk ending at %d", step, i, c.first, prev.first+uint64(len(prev.offs))-1)
		}
	}
}

// TestRingConcurrentReadersSeeEveryFrame runs one writer against four
// readers with the ring overflowing under them and frames spanning and
// exceeding chunks: each read must start at the reader's cursor and
// hold the frames it was owed, in order and byte-exact — checked after
// the lock is released, while the writer keeps appending — or report
// errTooOld, after which the reader skips to the oldest frame held, as
// a snapshot would.
func TestRingConcurrentReadersSeeEveryFrame(t *testing.T) {
	const frames, readers, chunk = 20000, 4, 512
	r := newRing(64, 1)
	r.chunkSize = chunk
	size := func(seq uint64) int { return 1 + int(seq*37)%(3*chunk) }
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var spans [][]byte
			for from := uint64(1); from <= frames; {
				var n int
				var err error
				spans, n, err = r.awaitFrom(from, spans[:0], nil)
				if errors.Is(err, errTooOld) {
					r.mu.Lock()
					from = r.first
					r.mu.Unlock()
					continue
				}
				if err != nil {
					t.Errorf("awaitFrom(%d): %v", from, err)
					return
				}
				br := bytes.NewReader(bytes.Join(spans, nil))
				for k := 0; k < n; k++ {
					seq := from + uint64(k)
					p, err := readFrame(br)
					if err != nil || !bytes.Equal(p, ringPayload(seq, size(seq))) {
						t.Errorf("reader at %d: frame %d is not the one appended (%v)", from, seq, err)
						return
					}
				}
				if br.Len() != 0 {
					t.Errorf("reader at %d: %d bytes past the %d frames counted", from, br.Len(), n)
					return
				}
				from += uint64(n)
			}
		}()
	}
	for seq := uint64(1); seq <= frames; seq++ {
		if err := r.append(seq, framed(ringPayload(seq, size(seq)))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
