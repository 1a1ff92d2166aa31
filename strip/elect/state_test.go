package elect

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/strip/fault"
	"repro/strip/internal/frame"
)

func sampleState() *persistentState {
	return &persistentState{
		round:      7,
		maxDecided: 3,
		leader:     "n1:4001",
		acc: map[uint64]acceptorState{
			4: {promised: 11, accBallot: 11, accValue: "n2:4002"},
			6: {promised: 2},
		},
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	cases := []*persistentState{
		sampleState(),
		{}, // fresh node: all zero, no acceptor entries
		{round: 1, maxDecided: 9, leader: "n0"},
	}
	for _, want := range cases {
		payload, err := encodeState(want)
		if err != nil {
			t.Fatalf("encodeState(%+v): %v", want, err)
		}
		got, err := decodeState(payload)
		if err != nil {
			t.Fatalf("decodeState(encodeState(%+v)): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed state:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestStateCodecRejectsMalformed(t *testing.T) {
	good, err := encodeState(sampleState())
	if err != nil {
		t.Fatalf("encodeState: %v", err)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown version", append([]byte{stateVersion + 1}, good[1:]...)},
		{"truncated", good[:len(good)-3]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
		{"entries out of order", ledgerPayload(2, 6, 4)},
		// Sizing the map by this count would allocate tens of megabytes
		// before the decode fails.
		{"entry count overruns payload", ledgerPayload(1<<20, 0)},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeState(tc.payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decodeState accepted malformed payload", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: decodeState allocated %d bytes before failing", tc.name, grew)
		}
	}
}

// ledgerPayload is a ledger payload declaring count acceptor entries
// and holding one zero entry per inst, in the order given.
func ledgerPayload(count uint32, insts ...uint64) []byte {
	b := append(make([]byte, 1+8+8+2), 0, 0, 0, 0) // version round maxdecided leader ""
	b[0] = stateVersion
	binary.BigEndian.PutUint32(b[len(b)-4:], count)
	for _, inst := range insts {
		b = binary.BigEndian.AppendUint64(b, inst)
		b = append(b, make([]byte, minEntryBytes-8)...)
	}
	return b
}

// TestStateFileGolden pins the ledger file byte for byte, envelope and
// payload, as saveState writes sampleState. A change here makes every
// ledger already on disk fail to load.
func TestStateFileGolden(t *testing.T) {
	fs := fault.NewMemFS()
	if err := saveState(fs, "ledger", sampleState()); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("ledger")
	if err != nil {
		t.Fatal(err)
	}
	const want = "00000059" + // length
		"01" + "0000000000000007" + "0000000000000003" + "0007" + "6e313a34303031" + // version round maxdecided leader
		"00000002" + // entries
		"0000000000000004" + "000000000000000b" + "000000000000000b" + "0007" + "6e323a34303032" +
		"0000000000000006" + "0000000000000002" + "0000000000000000" + "0000" +
		"76240890" // crc32
	if hex.EncodeToString(got) != want {
		t.Fatalf("ledger file drifted from golden:\n got %x\nwant %s", got, want)
	}
}

func TestSaveLoadState(t *testing.T) {
	fs := fault.NewMemFS()
	const path = "ledger"

	// A missing file is a fresh node, not an error.
	st, err := loadState(fs, path)
	if err != nil || st != nil {
		t.Fatalf("loadState(missing) = %+v, %v; want nil, nil", st, err)
	}

	want := sampleState()
	if err := saveState(fs, path, want); err != nil {
		t.Fatalf("saveState: %v", err)
	}
	got, err := loadState(fs, path)
	if err != nil {
		t.Fatalf("loadState: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded state differs:\n got %+v\nwant %+v", got, want)
	}

	// Overwrite with a newer snapshot: the rename must replace, not append.
	want.round = 20
	want.maxDecided = 6
	delete(want.acc, 4)
	if err := saveState(fs, path, want); err != nil {
		t.Fatalf("saveState #2: %v", err)
	}
	if got, err = loadState(fs, path); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after overwrite: %+v, %v; want %+v", got, err, want)
	}
}

// TestSaveStateCrashKeepsOldLedger pins the atomicity argument: a
// crash after the temp file is written but before the rename commits
// must leave the previous ledger intact and loadable.
func TestSaveStateCrashKeepsOldLedger(t *testing.T) {
	fs := fault.NewMemFS()
	const path = "ledger"
	old := sampleState()
	if err := saveState(fs, path, old); err != nil {
		t.Fatalf("saveState: %v", err)
	}

	// Replay saveState's steps for a newer snapshot, stopping where a
	// crash between Close and Rename would.
	newer := sampleState()
	newer.round = 99
	payload, err := encodeState(newer)
	if err != nil {
		t.Fatalf("encodeState: %v", err)
	}
	f, err := fs.Create(path + ".tmp")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := frame.Write(f, payload, MaxFrame); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// No rename: the crash ate it.

	got, err := loadState(fs, path)
	if err != nil {
		t.Fatalf("loadState after crash: %v", err)
	}
	if !reflect.DeepEqual(got, old) {
		t.Fatalf("crash before rename lost the old ledger:\n got %+v\nwant %+v", got, old)
	}
}

// TestLoadStateCorruptIsError pins the no-amnesia rule: a corrupt
// ledger must fail loudly instead of silently starting fresh.
func TestLoadStateCorruptIsError(t *testing.T) {
	fs := fault.NewMemFS()
	const path = "ledger"
	if err := saveState(fs, path, sampleState()); err != nil {
		t.Fatalf("saveState: %v", err)
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)-1] ^= 0x01
	if err := fs.WriteFile(path, data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := loadState(fs, path); !errors.Is(err, frame.ErrChecksum) {
		t.Fatalf("loadState(corrupt) = %v, want frame.ErrChecksum", err)
	}
}
