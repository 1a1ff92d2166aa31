package strip

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/strip/fault"
	"repro/strip/internal/frame"
)

// Hand-built log files for the WAL tests. They are framed with
// strip/internal/frame directly, so a test's input does not depend on
// the writer in wal.go.

// kv is one pair of a hand-built batch.
func kv(key string, v float64) KeyValue { return KeyValue{Key: key, Value: v} }

// segmentFile frames a segment file: the header record naming gen,
// then one batch record per batch, the i-th at sequence i+1.
func segmentFile(gen uint64, batches ...[]KeyValue) []byte {
	b := frameRecord(nil, binary.BigEndian.AppendUint64([]byte{frame.KindSegment}, gen))
	for i, kvs := range batches {
		b = frameRecord(b, batchPayload(uint64(i+1), kvs...))
	}
	return b
}

// batchPayload is the payload of one batch record.
func batchPayload(seq uint64, kvs ...KeyValue) []byte {
	p, err := frame.AppendBatch(nil, seq, kvs)
	if err != nil {
		panic(err)
	}
	return p
}

// frameRecord appends payload to b as one frame.
func frameRecord(b, payload []byte) []byte {
	b, err := frame.Append(b, payload, frame.MaxRecord)
	if err != nil {
		panic(err)
	}
	return b
}

// badCRC returns log with the checksum of the frame ending at end
// damaged: a whole frame that no crash can produce.
func badCRC(log []byte, end int) []byte {
	out := append([]byte(nil), log...)
	out[end-1] ^= 0xFF
	return out
}

// goldenWrites is the batch behind the WAL goldens: the writes of
// strip/repl's batch golden.
var goldenWrites = []KeyValue{kv("last-price", 1.6612), kv("position", -3)}

// goldenDB opens a WAL on fs and commits goldenWrites, the first
// replication sequence number.
func goldenDB(t *testing.T, fs *fault.MemFS) *DB {
	t.Helper()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(5 * time.Second),
		Func: func(tx *Tx) error {
			for _, w := range goldenWrites {
				tx.Set(w.Key, w.Value)
			}
			return nil
		},
	})
	if !res.Committed() {
		db.Close()
		t.Fatalf("golden commit: %+v", res)
	}
	return db
}

// TestWALSegmentGolden pins an active segment's bytes: the header
// record of generation 1, then one batch record at sequence 1 whose
// payload is strip/repl's batch golden but for the sequence number.
func TestWALSegmentGolden(t *testing.T) {
	fs := fault.NewMemFS()
	if err := goldenDB(t, fs).Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	const want = "00000009" + "04" + "0000000000000001" + "cce27534" +
		"00000033" + "02" + "0000000000000001" + "00000002" +
		"000a" + "6c6173742d7072696365" + "3ffa94467381d7dc" +
		"0008" + "706f736974696f6e" + "c008000000000000" + "b4145dac"
	if hex.EncodeToString(got) != want {
		t.Fatalf("segment bytes:\n got %x\nwant %s", got, want)
	}
	if !bytes.Equal(got, segmentFile(1, goldenWrites)) {
		t.Fatal("segment differs from the hand-framed file")
	}
}

// TestWALSnapshotGolden pins a checkpoint snapshot's bytes: the header
// record naming generation 2 (the first the snapshot does not cover),
// then the general store as one batch record at sequence 0.
func TestWALSnapshotGolden(t *testing.T) {
	fs := fault.NewMemFS()
	db := goldenDB(t, fs)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(snapPath("wal"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "00000009" + "05" + "0000000000000002" + "429030cd" +
		"00000033" + "02" + "0000000000000000" + "00000002" +
		"000a" + "6c6173742d7072696365" + "3ffa94467381d7dc" +
		"0008" + "706f736974696f6e" + "c008000000000000" + "f307ab57"
	if hex.EncodeToString(got) != want {
		t.Fatalf("snapshot bytes:\n got %x\nwant %s", got, want)
	}
}

// TestWALRefusesOldFormat opens each file shape the text format of
// earlier versions left on disk. Each must be refused with a
// *WALCorruptError — the first bytes of every text file read as a
// frame length over the cap — and no byte of any file may change: a
// refused log is never truncated.
func TestWALRefusesOldFormat(t *testing.T) {
	for name, files := range map[string]map[string]string{
		"text active segment":  {"wal": "wal 1\nset \"a\" 1\ncommit\n"},
		"headerless gen 0":     {"wal": "set \"a\" 1\ncommit\n"},
		"text sealed segment":  {segmentName("wal", 1): "wal 1\nset \"a\" 1\ncommit\n", "wal": string(segmentFile(2))},
		"text snapshot":        {snapPath("wal"): "snap 2\nset \"a\" 1\n", "wal": string(segmentFile(2))},
		"torn text set record": {"wal": "wal 1\nset \"a\" 1\ncommit\nset \"b\""},
	} {
		t.Run(name, func(t *testing.T) {
			fs := fault.NewMemFS()
			for f, data := range files {
				if err := fs.WriteFile(f, []byte(data)); err != nil {
					t.Fatal(err)
				}
			}
			db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
			if err == nil {
				db.Close()
				t.Fatal("old-format log accepted")
			}
			var ce *WALCorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Open = %v, want a *WALCorruptError", err)
			}
			names, err := fs.ReadDir(".")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != len(files) {
				t.Fatalf("files after Open: %v, want exactly %d", names, len(files))
			}
			for f, data := range files {
				if got, err := fs.ReadFile(f); err != nil || string(got) != data {
					t.Fatalf("%s changed: %q (%v), want %q", f, got, err, data)
				}
			}
		})
	}
}

// TestWALCheckpointBeyondFrameCap checkpoints a general store larger
// than one frame may carry: the snapshot must split it across batch
// records within frame.MaxRecord, and recovery must read every one.
func TestWALCheckpointBeyondFrameCap(t *testing.T) {
	fs := fault.NewMemFS()
	cfg := Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 10, 1000
	pad := strings.Repeat("x", 1000)
	for b := 0; b < batches; b++ {
		res := db.Exec(TxnSpec{
			Deadline: time.Now().Add(5 * time.Second),
			Func: func(tx *Tx) error {
				for i := 0; i < perBatch; i++ {
					tx.Set(fmt.Sprintf("%s-%d-%d", pad, b, i), float64(b*perBatch+i))
				}
				return nil
			},
		})
		if !res.Committed() {
			db.Close()
			t.Fatalf("batch %d: %+v", b, res)
		}
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := fs.ReadFile(snapPath("wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) <= frame.MaxRecord {
		t.Fatalf("snapshot is %d bytes; the test needs more than one frame's cap", len(snap))
	}
	r := bytes.NewReader(snap)
	records := 0
	for {
		_, _, err := frame.ReadBuf(r, nil, frame.MaxRecord)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("snapshot record %d: %v", records, err)
		}
		records++
	}
	if records < 3 {
		t.Fatalf("snapshot holds %d records, want a header and at least two batches", records)
	}

	state, err := recoveredState(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != batches*perBatch {
		t.Fatalf("recovered %d keys, want %d", len(state), batches*perBatch)
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			if v := state[fmt.Sprintf("%s-%d-%d", pad, b, i)]; v != float64(b*perBatch+i) {
				t.Fatalf("key %d/%d recovered as %v", b, i, v)
			}
		}
	}
}

// TestWALRefusesOversizedCommit is the regression for a commit whose
// key no frame can carry: it used to be logged and applied while the
// replication stream dropped it, after which no snapshot of the
// database encoded and no cold replica could bootstrap. It must end
// Failed with frame.ErrTooLarge before anything reaches the log — not
// applied, not published, not a WAL error — and the database must
// keep committing.
func TestWALRefusesOversizedCommit(t *testing.T) {
	fs := fault.NewMemFS()
	db, err := Open(Config{Policy: TransactionsFirst, WALPath: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var published int
	db.SetReplicationSink(func(ReplEvent) { published++ })
	setKey(t, db, "a", 1)
	before, err := fs.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}

	long := strings.Repeat("k", 70000)
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(5 * time.Second),
		Func: func(tx *Tx) error {
			tx.Set("b", 2)
			tx.Set(long, 3)
			return nil
		},
	})
	if res.State != Failed || !errors.Is(res.Err, frame.ErrTooLarge) {
		t.Fatalf("oversized commit: %+v, want Failed wrapping frame.ErrTooLarge", res)
	}
	if after, _ := fs.ReadFile("wal"); !bytes.Equal(after, before) {
		t.Fatal("refused commit reached the log")
	}
	if _, ok := getKey(t, db, "b"); ok {
		t.Fatal("refused commit applied")
	}
	if published != 1 || db.Sequence() != 1 {
		t.Fatalf("refused commit published: %d events, sequence %d", published, db.Sequence())
	}
	if s := db.Stats(); s.Degraded || s.WALErrors != 0 || s.TxnsFailedDurability != 0 {
		t.Fatalf("refused commit counted against the WAL: %+v", s)
	}
	setKey(t, db, "c", 3)
	if v, ok := getKey(t, db, "c"); !ok || v != 3 {
		t.Fatalf("commit after the refusal: %v %v", v, ok)
	}
}
