// Package repl replicates a strip database over TCP: the primary
// publishes its installed-update and committed-batch stream — in the
// replication total order assigned by strip — as length-prefixed,
// CRC-checked binary frames, retains a bounded in-memory ring of
// recent frames for sequence-based resume (`RESUME <seq>`), and
// bootstraps cold or lapsed replicas with a consistent snapshot. The
// replica feeds received frames through the normal ApplyUpdate
// scheduler path, so the configured policy (UF/TF/SU/OD) governs
// install order on replicas too, and reports its freshness as MA/UU
// replication lag — a replica is the paper's imported materialized
// view with the primary as the external world.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"repro/strip"
)

// Frame kinds, the first payload byte.
const (
	// KindUpdate frames one installed view update.
	KindUpdate byte = 1
	// KindBatch frames one committed general-data write batch.
	KindBatch byte = 2
	// KindSnapshot frames a full bootstrap snapshot.
	KindSnapshot byte = 3
)

// MaxFrame bounds a frame payload. Update and batch frames are tiny;
// the cap exists for snapshots and as the codec's defense against a
// corrupt or hostile length prefix.
const MaxFrame = 8 << 20

// frameOverhead is the wire bytes around a payload: a 4-byte length
// prefix and a 4-byte CRC32 trailer.
const frameOverhead = 8

// Codec errors. ReadFrame and Decode return errors — never panic and
// never a partial message — on any malformed input.
var (
	// ErrFrameTooLarge reports a length prefix beyond MaxFrame (or an
	// attempt to write one).
	ErrFrameTooLarge = errors.New("repl: frame exceeds size limit")
	// ErrChecksum reports a CRC32 mismatch: the frame was corrupted in
	// flight or at rest.
	ErrChecksum = errors.New("repl: frame checksum mismatch")
	// ErrTruncated reports a frame cut short of its declared length.
	ErrTruncated = errors.New("repl: truncated frame")
	// ErrMalformed reports a payload that does not decode as any
	// message.
	ErrMalformed = errors.New("repl: malformed frame payload")
)

// AppendFrame appends one encoded frame — big-endian payload length,
// the payload, and the payload's IEEE CRC32 — to dst and returns the
// extended slice. Fan-out paths pass a reused scratch buffer
// (scratch[:0]) so steady-state framing allocates nothing after the
// buffer reaches its high-water mark.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) == 0 || len(payload) > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return dst, nil
}

// WriteFrame writes one frame assembled into a single buffer, so it
// reaches the writer in one Write call. It allocates the buffer per
// call; the connection handlers write stream frames straight from the
// ring's wire bytes and frame snapshots with AppendFrame into
// per-connection scratch.
func WriteFrame(w io.Writer, payload []byte) error {
	buf, err := AppendFrame(make([]byte, 0, len(payload)+frameOverhead), payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame and returns its verified payload in a
// fresh buffer the caller owns. A clean EOF before the first header
// byte returns io.EOF; any other short read returns ErrTruncated.
func ReadFrame(r io.Reader) ([]byte, error) {
	payload, _, err := ReadFrameBuf(r, nil)
	return payload, err
}

// ReadFrameBuf reads one frame into buf (grown when too small) and
// returns the verified payload aliasing buf's storage plus the
// possibly-grown buffer to reuse for the next call. The payload is
// valid only until that next call; retaining callers must copy
// (Decode already copies every string and pair out). The length prefix
// is read into buf too — a local header array would escape through
// io.ReadFull's interface argument — so once buf has reached the
// largest frame's size a call allocates nothing.
func ReadFrameBuf(r io.Reader, buf []byte) (payload, newBuf []byte, err error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		if errors.Is(err, io.EOF) && err != io.ErrUnexpectedEOF {
			return nil, buf, io.EOF
		}
		return nil, buf, truncated(err)
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n == 0 || n > MaxFrame {
		return nil, buf, ErrFrameTooLarge
	}
	need := int(n) + 4
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	body := buf[:need]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, buf, truncated(err)
	}
	payload = body[:n]
	want := binary.BigEndian.Uint32(body[n:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, buf, ErrChecksum
	}
	return payload, buf, nil
}

// truncated wraps a short read in ErrTruncated, keeping its cause:
// io.ErrUnexpectedEOF when the stream ended inside the frame (an EOF
// there is never clean), the transport's error otherwise.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %w", ErrTruncated, err)
}

// Msg is a decoded frame payload: *UpdateMsg, *BatchMsg or
// *SnapshotMsg.
type Msg interface {
	// Seq is the replication sequence the message carries.
	Seq() uint64
}

// UpdateMsg is one installed view update from the primary.
type UpdateMsg struct {
	Sequence   uint64
	Object     string
	Importance strip.Importance
	Partial    bool
	Value      float64
	Generated  int64 // Unix nanoseconds; 0 means unknown
	Fields     []strip.KeyValue
}

// Seq returns the replication sequence.
func (m *UpdateMsg) Seq() uint64 { return m.Sequence }

// BatchMsg is one committed write batch from the primary.
type BatchMsg struct {
	Sequence uint64
	Writes   []strip.KeyValue
}

// Seq returns the replication sequence.
func (m *BatchMsg) Seq() uint64 { return m.Sequence }

// SnapshotMsg is a bootstrap snapshot: full state as of Snap.Seq.
type SnapshotMsg struct {
	Snap strip.Snapshot
}

// Seq returns the sequence the snapshot state corresponds to.
func (m *SnapshotMsg) Seq() uint64 { return m.Snap.Seq }

// Payload layouts, all integers big-endian. Strings carry a uint16
// length; key/value pairs are a string key and a float64 bit pattern.
//
//	update:   kind seq:u64 gen:i64 value:f64 importance:u8 flags:u8
//	          object:str nfields:u16 pair*
//	batch:    kind seq:u64 n:u32 pair*
//	snapshot: kind seq:u64 nviews:u32 view* ngeneral:u32 pair*
//	view:     name:str importance:u8 gen:i64 value:f64 nfields:u16 pair*
const flagPartial = 1

// EncodeEvent encodes one replication event as a frame payload.
func EncodeEvent(ev strip.ReplEvent) ([]byte, error) {
	n := 16 + 16*len(ev.Writes)
	if ev.Kind == strip.ReplUpdate {
		n = 64 + len(ev.Object) + 12*len(ev.Fields)
	}
	return appendEvent(make([]byte, 0, n), ev)
}

// appendEventFrame appends one replication event to dst as a whole
// frame — the bytes AppendFrame(dst, EncodeEvent(ev)) would produce —
// encoding the payload in place after a length prefix it patches once
// the payload's size is known. The primary frames each event into its
// ring with it, once.
func appendEventFrame(dst []byte, ev strip.ReplEvent) ([]byte, error) {
	start := len(dst)
	dst, err := appendEvent(append(dst, 0, 0, 0, 0), ev)
	if err != nil {
		return nil, err
	}
	payload := dst[start+4:]
	if len(payload) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload)), nil
}

// appendEvent appends one replication event's payload to b.
func appendEvent(b []byte, ev strip.ReplEvent) ([]byte, error) {
	switch ev.Kind {
	case strip.ReplUpdate:
		var flags byte
		if ev.Partial {
			flags |= flagPartial
		}
		b = append(b, KindUpdate)
		b = binary.BigEndian.AppendUint64(b, ev.Seq)
		b = binary.BigEndian.AppendUint64(b, uint64(genNanos(ev.Generated)))
		b = appendF64(b, ev.Value)
		b = append(b, byte(ev.Importance), flags)
		var err error
		if b, err = appendString(b, ev.Object); err != nil {
			return nil, err
		}
		return appendPairs16(b, ev.Fields)
	case strip.ReplBatch:
		b = append(b, KindBatch)
		b = binary.BigEndian.AppendUint64(b, ev.Seq)
		return appendPairs32(b, ev.Writes)
	default:
		return nil, fmt.Errorf("%w: unknown event kind %d", ErrMalformed, ev.Kind)
	}
}

// EncodeSnapshot encodes a snapshot as a frame payload. Equal
// snapshots (the strip side sorts views and pairs) encode to equal
// bytes, which the convergence tests rely on.
func EncodeSnapshot(s strip.Snapshot) ([]byte, error) {
	b := make([]byte, 0, 64+64*len(s.Views)+16*len(s.General))
	b = append(b, KindSnapshot)
	b = binary.BigEndian.AppendUint64(b, s.Seq)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Views)))
	var err error
	for _, v := range s.Views {
		if b, err = appendString(b, v.Name); err != nil {
			return nil, err
		}
		b = append(b, byte(v.Importance))
		b = binary.BigEndian.AppendUint64(b, uint64(genNanos(v.Generated)))
		b = appendF64(b, v.Value)
		if b, err = appendPairs16(b, v.Fields); err != nil {
			return nil, err
		}
	}
	return appendPairs32(b, s.General)
}

// Decode parses a frame payload into its message. The returned
// message owns all of its memory: every string and pair list is copied
// out of payload, so callers may reuse the payload buffer (see
// ReadFrameBuf) as soon as Decode returns.
func Decode(payload []byte) (Msg, error) {
	d := decoder{b: payload}
	kind := d.u8()
	seq := d.u64()
	switch kind {
	case KindUpdate:
		m := &UpdateMsg{Sequence: seq}
		m.Generated = int64(d.u64())
		m.Value = d.f64()
		m.Importance = d.importance()
		flags := d.u8()
		m.Partial = flags&flagPartial != 0
		m.Object = d.str()
		m.Fields = d.pairs16()
		return finish(&d, m)
	case KindBatch:
		m := &BatchMsg{Sequence: seq}
		m.Writes = d.pairs32()
		return finish(&d, m)
	case KindSnapshot:
		m := &SnapshotMsg{Snap: strip.Snapshot{Seq: seq}}
		n := d.count32(minViewBytes)
		for i := 0; i < n && d.err == nil; i++ {
			var v strip.SnapshotView
			v.Name = d.str()
			v.Importance = d.importance()
			v.Generated = nanosGen(int64(d.u64()))
			v.Value = d.f64()
			v.Fields = d.pairs16()
			m.Snap.Views = append(m.Snap.Views, v)
		}
		m.Snap.General = d.pairs32()
		return finish(&d, m)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrMalformed, kind)
	}
}

// finish validates that the payload was consumed exactly.
func finish(d *decoder, m Msg) (Msg, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b)-d.off)
	}
	return m, nil
}

// genNanos converts a generation time to wire nanoseconds (zero time
// stays zero).
func genNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// nanosGen is the inverse of genNanos.
func nanosGen(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// minimum encoded sizes, used to reject absurd element counts before
// allocating.
const (
	minPairBytes = 2 + 8             // empty key + value
	minViewBytes = 2 + 1 + 8 + 8 + 2 // empty name + importance + gen + value + field count
)

// decoder is a bounds-checked cursor over a payload. The first short
// read latches err and every later read returns zero values, so
// decoding malformed input can never panic or over-read.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrMalformed, n, d.off, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// importance reads an importance class, rejecting values the
// scheduler's class queue has no partition for: a version-skewed or
// hostile peer must not get one past a valid checksum.
func (d *decoder) importance() strip.Importance {
	imp := strip.Importance(d.u8())
	if d.err == nil && imp > strip.High {
		d.err = fmt.Errorf("%w: importance out of range", ErrMalformed)
	}
	return imp
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	// A copy: b aliases the caller's reused read buffer (ReadFrameBuf).
	return string(b)
}

// count32 reads an element count and rejects counts that could not
// fit in the remaining payload at minBytes each.
func (d *decoder) count32(minBytes int) int {
	n := int(d.u32())
	if d.err == nil && n*minBytes > len(d.b)-d.off {
		d.err = fmt.Errorf("%w: count %d overruns payload", ErrMalformed, n)
		return 0
	}
	return n
}

func (d *decoder) pair() strip.KeyValue {
	return strip.KeyValue{Key: d.str(), Value: d.f64()}
}

func (d *decoder) pairs16() []strip.KeyValue {
	n := int(d.u16())
	if d.err != nil || n == 0 {
		return nil
	}
	if n*minPairBytes > len(d.b)-d.off {
		d.err = fmt.Errorf("%w: field count %d overruns payload", ErrMalformed, n)
		return nil
	}
	out := make([]strip.KeyValue, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.pair())
	}
	return out
}

func (d *decoder) pairs32() []strip.KeyValue {
	n := d.count32(minPairBytes)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]strip.KeyValue, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.pair())
	}
	return out
}

// appendF64 appends a float64 bit pattern.
func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// appendString appends a uint16-length-prefixed string.
func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrFrameTooLarge, len(s))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// appendPairs16 appends a uint16-counted pair list.
func appendPairs16(b []byte, kvs []strip.KeyValue) ([]byte, error) {
	if len(kvs) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d pairs", ErrFrameTooLarge, len(kvs))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(kvs)))
	return appendPairList(b, kvs)
}

// appendPairs32 appends a uint32-counted pair list.
func appendPairs32(b []byte, kvs []strip.KeyValue) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, uint32(len(kvs)))
	return appendPairList(b, kvs)
}

func appendPairList(b []byte, kvs []strip.KeyValue) ([]byte, error) {
	var err error
	for _, kv := range kvs {
		if b, err = appendString(b, kv.Key); err != nil {
			return nil, err
		}
		b = appendF64(b, kv.Value)
	}
	return b, nil
}
