package elect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"repro/strip/fault"
	"repro/strip/internal/frame"
)

// persistentState is the slice of engine state whose loss breaks the
// Paxos safety argument: the acceptor ledger (promises and accepted
// values for undecided instances), the highest campaign round this
// node has spent (a restarted proposer must never reuse a ballot it
// already issued), and the highest learned decision (so a restarted
// node answers prepares for settled epochs with the decision instead
// of re-voting them). Everything durable here is monotone — promises,
// accepted ballots, round and decided epoch only grow — so a newer
// snapshot always supersedes an older one.
type persistentState struct {
	round      uint64
	maxDecided uint64
	leader     string
	acc        map[uint64]acceptorState // instances above maxDecided only
}

// stateVersion is the state-file format version byte.
const stateVersion = 1

// minEntryBytes is the smallest encoded acceptor entry: three u64s and
// an empty value's length prefix. decodeState rejects an entry count
// the payload could not hold before sizing the map with it.
const minEntryBytes = 8 + 8 + 8 + 2

// encodeState renders st as one frame payload (the file is one
// strip/internal/frame frame, CRC32 trailer included). Acceptor
// entries are sorted by instance so the encoding is byte-stable.
//
// Layout, integers big-endian, strings u16-length-prefixed:
//
//	version:u8 round:u64 maxdecided:u64 leader:str n:u32
//	n × (inst:u64 promised:u64 accballot:u64 accvalue:str)
func encodeState(st *persistentState) ([]byte, error) {
	b := []byte{stateVersion}
	b = binary.BigEndian.AppendUint64(b, st.round)
	b = binary.BigEndian.AppendUint64(b, st.maxDecided)
	b, err := frame.AppendString(b, st.leader)
	if err != nil {
		return nil, err
	}
	insts := make([]uint64, 0, len(st.acc))
	for inst := range st.acc {
		insts = append(insts, inst)
	}
	slices.Sort(insts)
	b = binary.BigEndian.AppendUint32(b, uint32(len(insts)))
	for _, inst := range insts {
		a := st.acc[inst]
		b = binary.BigEndian.AppendUint64(b, inst)
		b = binary.BigEndian.AppendUint64(b, a.promised)
		b = binary.BigEndian.AppendUint64(b, a.accBallot)
		if b, err = frame.AppendString(b, a.accValue); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeState parses a state-file payload, rejecting (never
// panicking on) any malformed input. It accepts only what encodeState
// writes — entries in strictly ascending instance order — so an
// accepted payload re-encodes to the same bytes.
func decodeState(payload []byte) (*persistentState, error) {
	d := frame.NewDecoder(payload)
	if v := d.U8(); d.Err() == nil && v != stateVersion {
		return nil, fmt.Errorf("%w: unknown state version %d", frame.ErrMalformed, v)
	}
	st := &persistentState{round: d.U64(), maxDecided: d.U64(), leader: d.Str()}
	if n := d.Count32(minEntryBytes); n > 0 {
		st.acc = make(map[uint64]acceptorState, n)
		var prev uint64
		for i := 0; i < n && d.Err() == nil; i++ {
			inst := d.U64()
			if i > 0 && inst <= prev {
				d.Failf("acceptor entry %d not above %d", inst, prev)
			}
			prev = inst
			st.acc[inst] = acceptorState{promised: d.U64(), accBallot: d.U64(), accValue: d.Str()}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return st, nil
}

// saveState atomically replaces the state file: write a sibling temp
// file, sync, rename. The previous ledger survives any crash before
// the rename commits, so the file on disk is always one whole
// CRC-verified record.
func saveState(fs fault.FS, path string, st *persistentState) error {
	payload, err := encodeState(st)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := frame.Write(f, payload, MaxFrame); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}

// loadState reads the state file. A missing file is a fresh node
// (nil state, no error); a present-but-unreadable file is an error,
// not amnesia — silently discarding the ledger would let the node
// break promises it already made, which is the exact failure the
// ledger exists to prevent.
func loadState(fs fault.FS, path string) (*persistentState, error) {
	f, err := fs.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	payload, _, err := frame.ReadBuf(f, nil, MaxFrame)
	if err != nil {
		return nil, fmt.Errorf("elect: state file %s unreadable: %w", path, err)
	}
	st, err := decodeState(payload)
	if err != nil {
		return nil, fmt.Errorf("elect: state file %s corrupt: %w", path, err)
	}
	return st, nil
}
