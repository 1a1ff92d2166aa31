// Package elect elects replication primaries: a compact single-decree
// Paxos over a small fixed peer set, run once per replication epoch.
// The instance number IS the epoch being minted — deciding instance E
// decides "node V owns epoch E", so a failover both names the new
// primary and mints the strictly-higher epoch that forces every node
// from the old history (including a restarted old primary) through a
// snapshot re-bootstrap in strip/repl.
//
// The package splits sans-io from transport: the proposer/acceptor
// state machines (paxos.go) are pure — driven only by Step/Tick calls
// with an explicit clock, randomized solely through a seeded PCG — so
// a scripted harness replays an election bit-for-bit from a seed. The
// Node shell (node.go) runs them over TCP with the same CRC-framed
// codec style as strip/repl; its dial hook accepts fault.ChaosConn
// and fault.Partition wrappers so torture tests inject partitions and
// resets deterministically.
package elect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Message kinds, the first payload byte.
const (
	// KindPrepare is Paxos phase-1a: a candidate asks for promises.
	KindPrepare byte = 1
	// KindPromise is phase-1b: an acceptor's promise or refusal.
	KindPromise byte = 2
	// KindAccept is phase-2a: the candidate proposes a value.
	KindAccept byte = 3
	// KindAccepted is phase-2b: an acceptor's acceptance or refusal.
	KindAccepted byte = 4
	// KindDecided announces a decided (epoch, primary) pair.
	KindDecided byte = 5
	// KindPing probes a peer for liveness and leader gossip.
	KindPing byte = 6
	// KindPong answers a ping with the responder's decided leader.
	KindPong byte = 7
)

// MaxFrame bounds a frame payload. Election messages carry a couple
// of node IDs at most; the cap is the codec's defense against a
// corrupt or hostile length prefix.
const MaxFrame = 64 << 10

// frameOverhead is the wire bytes around a payload: a 4-byte length
// prefix and a 4-byte CRC32 trailer.
const frameOverhead = 8

// Codec errors. ReadFrame and Decode return errors — never panic and
// never a partial message — on any malformed input.
var (
	// ErrFrameTooLarge reports a length prefix beyond MaxFrame (or an
	// attempt to write one).
	ErrFrameTooLarge = errors.New("elect: frame exceeds size limit")
	// ErrChecksum reports a CRC32 mismatch: the frame was corrupted in
	// flight.
	ErrChecksum = errors.New("elect: frame checksum mismatch")
	// ErrTruncated reports a frame cut short of its declared length.
	ErrTruncated = errors.New("elect: truncated frame")
	// ErrMalformed reports a payload that does not decode as any
	// message.
	ErrMalformed = errors.New("elect: malformed frame payload")
)

// Msg is a decoded frame payload: one of *Prepare, *Promise, *Accept,
// *Accepted, *Decided, *Ping or *Pong. Every message names its
// sender, which doubles as the reply address.
type Msg interface {
	// Sender is the peer ID (its elect address) of the originator.
	Sender() string
}

// Prepare is Paxos phase-1a for one epoch instance.
type Prepare struct {
	From   string
	Epoch  uint64
	Ballot uint64
}

// Sender returns the originating peer ID.
func (m *Prepare) Sender() string { return m.From }

// Promise is phase-1b. OK promises ballots below Ballot will be
// refused; AccBallot/AccValue carry a previously accepted proposal
// (zero/empty when none). A refusal reports the acceptor's current
// promise in Promised so the candidate can pick a higher round.
type Promise struct {
	From      string
	Epoch     uint64
	Ballot    uint64
	OK        bool
	Promised  uint64
	AccBallot uint64
	AccValue  string
}

// Sender returns the originating peer ID.
func (m *Promise) Sender() string { return m.From }

// Accept is phase-2a: the candidate asks acceptors to accept Value
// (the would-be primary's ID) for the epoch instance.
type Accept struct {
	From   string
	Epoch  uint64
	Ballot uint64
	Value  string
}

// Sender returns the originating peer ID.
func (m *Accept) Sender() string { return m.From }

// Accepted is phase-2b; a refusal reports the acceptor's current
// promise in Promised.
type Accepted struct {
	From     string
	Epoch    uint64
	Ballot   uint64
	OK       bool
	Promised uint64
}

// Sender returns the originating peer ID.
func (m *Accepted) Sender() string { return m.From }

// Decided announces that epoch Epoch was decided for primary Value.
// Acceptors also answer prepares for already-decided epochs with it,
// so a lagging candidate learns the outcome instead of re-running it.
type Decided struct {
	From  string
	Epoch uint64
	Value string
}

// Sender returns the originating peer ID.
func (m *Decided) Sender() string { return m.From }

// Ping probes a peer: followers ping their leader to detect its
// death, the leader heartbeats every peer, and leaderless nodes ping
// everyone to discover a decided leader they missed. Like Pong it
// carries the sender's highest decided epoch and its winner
// (zero/empty when nothing is decided yet), so gossip flows in both
// directions of every probe — a node behind the sender learns the
// reign from the ping itself instead of waiting to be asked.
type Ping struct {
	From   string
	Epoch  uint64
	Leader string
}

// Sender returns the originating peer ID.
func (m *Ping) Sender() string { return m.From }

// Pong answers a ping with the responder's highest decided epoch and
// its winner (zero/empty when nothing is decided yet) — the gossip
// that re-points restarted nodes at the current primary.
type Pong struct {
	From   string
	Epoch  uint64
	Leader string
}

// Sender returns the originating peer ID.
func (m *Pong) Sender() string { return m.From }

// AppendFrame appends one encoded frame — big-endian payload length,
// the payload, and the payload's IEEE CRC32 — to dst and returns the
// extended slice, mirroring the strip/repl frame format.
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
// reaches the writer in one Write call.
func WriteFrame(w io.Writer, payload []byte) error {
	buf, err := AppendFrame(make([]byte, 0, len(payload)+frameOverhead), payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame and returns its verified payload. A clean
// EOF before the first header byte returns io.EOF; any other short
// read returns ErrTruncated, wrapping io.ErrUnexpectedEOF when the
// stream ended inside the frame and the transport's error otherwise.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) && err != io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, truncated(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, truncated(err)
	}
	payload := body[:n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(body[n:]) {
		return nil, ErrChecksum
	}
	return payload, nil
}

// truncated wraps a short read in ErrTruncated, keeping its cause: an
// EOF inside a frame is never clean, so it becomes io.ErrUnexpectedEOF.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %w", ErrTruncated, err)
}

// Encode encodes one message as a frame payload.
//
// Payload layouts, all integers big-endian, strings u16-length-
// prefixed, bools one byte (0/1):
//
//	prepare:  kind from:str epoch:u64 ballot:u64
//	promise:  kind from:str epoch:u64 ballot:u64 ok:u8 promised:u64
//	          accballot:u64 accvalue:str
//	accept:   kind from:str epoch:u64 ballot:u64 value:str
//	accepted: kind from:str epoch:u64 ballot:u64 ok:u8 promised:u64
//	decided:  kind from:str epoch:u64 value:str
//	ping:     kind from:str epoch:u64 leader:str
//	pong:     kind from:str epoch:u64 leader:str
func Encode(m Msg) ([]byte, error) {
	var b []byte
	var err error
	switch m := m.(type) {
	case *Prepare:
		if b, err = header(KindPrepare, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b = binary.BigEndian.AppendUint64(b, m.Ballot)
		}
	case *Promise:
		if b, err = header(KindPromise, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b = binary.BigEndian.AppendUint64(b, m.Ballot)
			b = appendBool(b, m.OK)
			b = binary.BigEndian.AppendUint64(b, m.Promised)
			b = binary.BigEndian.AppendUint64(b, m.AccBallot)
			b, err = appendString(b, m.AccValue)
		}
	case *Accept:
		if b, err = header(KindAccept, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b = binary.BigEndian.AppendUint64(b, m.Ballot)
			b, err = appendString(b, m.Value)
		}
	case *Accepted:
		if b, err = header(KindAccepted, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b = binary.BigEndian.AppendUint64(b, m.Ballot)
			b = appendBool(b, m.OK)
			b = binary.BigEndian.AppendUint64(b, m.Promised)
		}
	case *Decided:
		if b, err = header(KindDecided, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b, err = appendString(b, m.Value)
		}
	case *Ping:
		if b, err = header(KindPing, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b, err = appendString(b, m.Leader)
		}
	case *Pong:
		if b, err = header(KindPong, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b, err = appendString(b, m.Leader)
		}
	default:
		return nil, fmt.Errorf("%w: unknown message %T", ErrMalformed, m)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// header starts a payload with the kind byte and the sender ID.
func header(kind byte, from string) ([]byte, error) {
	return appendString([]byte{kind}, from)
}

// Decode parses a frame payload into its message. The returned
// message owns its memory (strings are copied out of payload).
func Decode(payload []byte) (Msg, error) {
	d := decoder{b: payload}
	kind := d.u8()
	from := d.str()
	var m Msg
	switch kind {
	case KindPrepare:
		m = &Prepare{From: from, Epoch: d.u64(), Ballot: d.u64()}
	case KindPromise:
		m = &Promise{From: from, Epoch: d.u64(), Ballot: d.u64(), OK: d.bool(),
			Promised: d.u64(), AccBallot: d.u64(), AccValue: d.str()}
	case KindAccept:
		m = &Accept{From: from, Epoch: d.u64(), Ballot: d.u64(), Value: d.str()}
	case KindAccepted:
		m = &Accepted{From: from, Epoch: d.u64(), Ballot: d.u64(), OK: d.bool(),
			Promised: d.u64()}
	case KindDecided:
		m = &Decided{From: from, Epoch: d.u64(), Value: d.str()}
	case KindPing:
		m = &Ping{From: from, Epoch: d.u64(), Leader: d.str()}
	case KindPong:
		m = &Pong{From: from, Epoch: d.u64(), Leader: d.str()}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrMalformed, kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b)-d.off)
	}
	return m, nil
}

// decoder is a bounds-checked cursor over a payload, in the
// strip/repl style: the first short read latches err and every later
// read returns zero values, so decoding malformed input can never
// panic or over-read.
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

func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("%w: bad bool byte", ErrMalformed)
		}
		return false
	}
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

func (d *decoder) str() string {
	n := int(binary.BigEndian.Uint16(firstTwo(d)))
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// firstTwo reads a string's length prefix, tolerating a latched
// decoder (returns a zero prefix).
func firstTwo(d *decoder) []byte {
	b := d.take(2)
	if b == nil {
		return []byte{0, 0}
	}
	return b
}

// appendBool appends a bool as one byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendString appends a uint16-length-prefixed string.
func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrFrameTooLarge, len(s))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}
