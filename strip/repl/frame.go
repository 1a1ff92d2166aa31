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
	"fmt"
	"time"

	"repro/strip"
	"repro/strip/internal/frame"
)

// Frame kinds, the first payload byte: the stream's share of the kind
// block the strip logs declare in strip/internal/frame.
const (
	// KindUpdate frames one installed view update.
	KindUpdate = frame.KindUpdate
	// KindBatch frames one committed general-data write batch, the
	// same record a WAL segment holds for it.
	KindBatch = frame.KindBatch
	// KindSnapshot frames a full bootstrap snapshot.
	KindSnapshot = frame.KindSnapshot
)

// MaxFrame bounds a frame payload: the strip logs' record cap. Update
// and batch frames are tiny; the cap exists for snapshots and as the
// codec's defense against a corrupt or hostile length prefix.
const MaxFrame = frame.MaxRecord

// AppendFrame appends one frame (strip/internal/frame's envelope,
// payload capped at MaxFrame) to dst and returns the extended slice.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	return frame.Append(dst, payload, MaxFrame)
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
// The batch layout and the pair list are frame.AppendBatch's.
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
// encoding the payload in place between frame.Begin and frame.End.
// The primary frames each event into its ring with it, once.
func appendEventFrame(dst []byte, ev strip.ReplEvent) ([]byte, error) {
	dst, start := frame.Begin(dst)
	dst, err := appendEvent(dst, ev)
	if err != nil {
		return nil, err
	}
	return frame.End(dst, start, MaxFrame)
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
		b = frame.AppendF64(b, ev.Value)
		b = append(b, byte(ev.Importance), flags)
		var err error
		if b, err = frame.AppendString(b, ev.Object); err != nil {
			return nil, err
		}
		return frame.AppendPairs16(b, ev.Fields)
	case strip.ReplBatch:
		return frame.AppendBatch(b, ev.Seq, ev.Writes)
	default:
		return nil, fmt.Errorf("%w: unknown event kind %d", frame.ErrMalformed, ev.Kind)
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
		if b, err = frame.AppendString(b, v.Name); err != nil {
			return nil, err
		}
		b = append(b, byte(v.Importance))
		b = binary.BigEndian.AppendUint64(b, uint64(genNanos(v.Generated)))
		b = frame.AppendF64(b, v.Value)
		if b, err = frame.AppendPairs16(b, v.Fields); err != nil {
			return nil, err
		}
	}
	return frame.AppendPairs32(b, s.General)
}

// Decode parses a frame payload into its message. The returned
// message owns all of its memory: every string and pair list is copied
// out of payload, so callers may reuse the payload buffer (see
// frame.ReadBuf) as soon as Decode returns.
func Decode(payload []byte) (Msg, error) {
	d := frame.NewDecoder(payload)
	kind := d.U8()
	seq := d.U64()
	switch kind {
	case KindUpdate:
		m := &UpdateMsg{Sequence: seq}
		m.Generated = int64(d.U64())
		m.Value = d.F64()
		m.Importance = importance(&d)
		flags := d.U8()
		m.Partial = flags&flagPartial != 0
		m.Object = d.Str()
		m.Fields = d.Pairs16()
		return finish(&d, m)
	case KindBatch:
		m := &BatchMsg{Sequence: seq}
		m.Writes = d.Pairs32()
		return finish(&d, m)
	case KindSnapshot:
		m := &SnapshotMsg{Snap: strip.Snapshot{Seq: seq}}
		n := d.Count32(minViewBytes)
		for i := 0; i < n && d.Err() == nil; i++ {
			var v strip.SnapshotView
			v.Name = d.Str()
			v.Importance = importance(&d)
			v.Generated = nanosGen(int64(d.U64()))
			v.Value = d.F64()
			v.Fields = d.Pairs16()
			m.Snap.Views = append(m.Snap.Views, v)
		}
		m.Snap.General = d.Pairs32()
		return finish(&d, m)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", frame.ErrMalformed, kind)
	}
}

// finish returns m once the payload was consumed exactly.
func finish(d *frame.Decoder, m Msg) (Msg, error) {
	if err := d.Finish(); err != nil {
		return nil, err
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

// minViewBytes is the smallest encoded snapshot view (empty name +
// importance + gen + value + field count), used to reject an absurd
// view count before allocating.
const minViewBytes = 2 + 1 + 8 + 8 + 2

// importance reads an importance class, rejecting values the
// scheduler's class queue has no partition for: a version-skewed or
// hostile peer must not get one past a valid checksum.
func importance(d *frame.Decoder) strip.Importance {
	imp := strip.Importance(d.U8())
	if imp > strip.High {
		d.Failf("importance out of range")
	}
	return imp
}
