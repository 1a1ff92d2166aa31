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
// Node shell (node.go) runs them over TCP in strip/internal/frame's
// CRC-checked frames, the envelope strip/repl streams in too; its dial
// hook accepts fault.ChaosConn and fault.Partition wrappers so torture
// tests inject partitions and resets deterministically.
package elect

import (
	"encoding/binary"
	"fmt"

	"repro/strip/internal/frame"
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
			b = frame.AppendBool(b, m.OK)
			b = binary.BigEndian.AppendUint64(b, m.Promised)
			b = binary.BigEndian.AppendUint64(b, m.AccBallot)
			b, err = frame.AppendString(b, m.AccValue)
		}
	case *Accept:
		if b, err = header(KindAccept, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b = binary.BigEndian.AppendUint64(b, m.Ballot)
			b, err = frame.AppendString(b, m.Value)
		}
	case *Accepted:
		if b, err = header(KindAccepted, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b = binary.BigEndian.AppendUint64(b, m.Ballot)
			b = frame.AppendBool(b, m.OK)
			b = binary.BigEndian.AppendUint64(b, m.Promised)
		}
	case *Decided:
		if b, err = header(KindDecided, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b, err = frame.AppendString(b, m.Value)
		}
	case *Ping:
		if b, err = header(KindPing, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b, err = frame.AppendString(b, m.Leader)
		}
	case *Pong:
		if b, err = header(KindPong, m.From); err == nil {
			b = binary.BigEndian.AppendUint64(b, m.Epoch)
			b, err = frame.AppendString(b, m.Leader)
		}
	default:
		return nil, fmt.Errorf("%w: unknown message %T", frame.ErrMalformed, m)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// header starts a payload with the kind byte and the sender ID.
func header(kind byte, from string) ([]byte, error) {
	return frame.AppendString([]byte{kind}, from)
}

// Decode parses a frame payload into its message. The returned
// message owns its memory (strings are copied out of payload).
func Decode(payload []byte) (Msg, error) {
	d := frame.NewDecoder(payload)
	kind := d.U8()
	from := d.Str()
	var m Msg
	switch kind {
	case KindPrepare:
		m = &Prepare{From: from, Epoch: d.U64(), Ballot: d.U64()}
	case KindPromise:
		m = &Promise{From: from, Epoch: d.U64(), Ballot: d.U64(), OK: d.Bool(),
			Promised: d.U64(), AccBallot: d.U64(), AccValue: d.Str()}
	case KindAccept:
		m = &Accept{From: from, Epoch: d.U64(), Ballot: d.U64(), Value: d.Str()}
	case KindAccepted:
		m = &Accepted{From: from, Epoch: d.U64(), Ballot: d.U64(), OK: d.Bool(),
			Promised: d.U64()}
	case KindDecided:
		m = &Decided{From: from, Epoch: d.U64(), Value: d.Str()}
	case KindPing:
		m = &Ping{From: from, Epoch: d.U64(), Leader: d.Str()}
	case KindPong:
		m = &Pong{From: from, Epoch: d.U64(), Leader: d.Str()}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", frame.ErrMalformed, kind)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}
