package strip

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/strip/fault"
	"repro/strip/internal/frame"
)

func FuzzParseUpdateLine(f *testing.F) {
	f.Add("DEM/USD 1700000000000000000 1.6612")
	f.Add("x 0 3.5")
	f.Add("a b c")
	f.Add("")
	f.Add("obj 123 -1e308")
	f.Fuzz(func(t *testing.T, line string) {
		u, err := ParseUpdateLine(line)
		if err != nil {
			return
		}
		// A successfully parsed update must round-trip.
		out, err2 := ParseUpdateLine(FormatUpdateLine(u))
		if err2 != nil {
			t.Fatalf("round trip of %q failed: %v", line, err2)
		}
		if out.Object != u.Object {
			t.Fatalf("object changed: %q -> %q", u.Object, out.Object)
		}
		// NaN values do not compare equal; everything else must.
		if out.Value != u.Value && u.Value == u.Value {
			t.Fatalf("value changed: %v -> %v", u.Value, out.Value)
		}
	})
}

func FuzzWALRoundTrip(f *testing.F) {
	f.Add("plain", 1.5)
	f.Add("key with spaces", -2.25)
	f.Add("quotes\"and\\slashes", 0.0)
	f.Add("newline\nkey", 9e99)
	f.Add(strings.Repeat("k", math.MaxUint16+1), 1.0)
	f.Fuzz(func(t *testing.T, key string, val float64) {
		if val != val {
			return // NaN never compares equal
		}
		dir := t.TempDir()
		cfg := Config{WALPath: dir + "/w.wal"}
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := db.Exec(TxnSpec{
			Deadline: time.Now().Add(time.Second),
			Func: func(tx *Tx) error {
				tx.Set(key, val)
				return nil
			},
		})
		// A key no frame can carry is refused, not logged.
		tooLong := len(key) > math.MaxUint16
		if tooLong && (res.State != Failed || !errors.Is(res.Err, frame.ErrTooLarge)) {
			db.Close()
			t.Fatalf("commit of a %d-byte key: %+v, want Failed with frame.ErrTooLarge", len(key), res)
		}
		if !tooLong && !res.Committed() {
			db.Close()
			t.Fatalf("commit failed: %+v", res)
		}
		db.Close()

		db2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		var got float64
		var ok bool
		db2.Exec(TxnSpec{
			Deadline: time.Now().Add(time.Second),
			Func: func(tx *Tx) error {
				got, ok = tx.Get(key)
				return nil
			},
		})
		if tooLong {
			if ok {
				t.Fatalf("refused %d-byte key recovered", len(key))
			}
			return
		}
		if !ok || got != val {
			t.Fatalf("recovered %q = %v (%v), want %v", key, got, ok, val)
		}
	})
}

// referenceReplay is a deliberately straightforward model of the
// active-segment replay contract, built on strip/internal/frame alone
// and independent of the reader in wal.go: the file opens with a
// segment header record, every later record is a batch that applies
// whole, a file that ends inside a frame has a torn tail that is
// dropped (inside the header: the segment died at birth and is
// empty), and any whole frame that fails its checksum, length or
// decode is corruption. It returns corrupt=true where recovery must
// fail.
func referenceReplay(data []byte) (state map[string]float64, corrupt bool) {
	state = map[string]float64{}
	r := bytes.NewReader(data)
	for headed := false; ; headed = true {
		payload, _, err := frame.ReadBuf(r, nil, frame.MaxRecord)
		switch {
		case err == io.EOF, errors.Is(err, io.ErrUnexpectedEOF):
			return state, false
		case err != nil:
			return nil, true
		}
		d := frame.NewDecoder(payload)
		kind := d.U8()
		d.U64()
		switch {
		case !headed && kind == frame.KindSegment:
			if d.Finish() != nil {
				return nil, true
			}
		case headed && kind == frame.KindBatch:
			kvs := d.Pairs32()
			if d.Finish() != nil {
				return nil, true
			}
			for _, kv := range kvs {
				state[kv.Key] = kv.Value
			}
		default:
			return nil, true
		}
	}
}

// FuzzReplayWAL feeds arbitrary bytes to recovery as the active WAL
// segment and checks it against referenceReplay: recovery must never
// panic, must fail with a typed *WALCorruptError exactly when the
// model says the log is corrupt, and must otherwise produce exactly
// the model's state.
func FuzzReplayWAL(f *testing.F) {
	one := segmentFile(1, []KeyValue{kv("a", 1)})
	two := segmentFile(1, []KeyValue{kv("a", 1)}, []KeyValue{kv("b", 2), kv("c", 3)})
	f.Add(two)                                    // clean
	f.Add(segmentFile(1)[:9])                     // torn header
	f.Add(two[:len(two)-3])                       // torn record
	f.Add(badCRC(two, len(two)))                  // bad CRC on the final record
	f.Add(badCRC(two, len(one)))                  // bad CRC mid-log
	f.Add(append(one, 0, 0, 0, 0))                // zero length
	f.Add([]byte("wal 1\nset \"a\" 1\ncommit\n")) // text file
	f.Add([]byte(""))                             // empty file
	f.Add(two[len(segmentFile(1)):])              // batches without their header
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := fault.NewMemFS()
		if err := fs.WriteFile("wal", data); err != nil {
			t.Fatal(err)
		}
		got, _, err := recoverGeneral(fs, "wal")
		want, corrupt := referenceReplay(data)
		if corrupt {
			var ce *WALCorruptError
			if err == nil || !errors.As(err, &ce) {
				t.Fatalf("corrupt log %q: recovery returned %v, want *WALCorruptError", data, err)
			}
			if got != nil {
				t.Fatalf("corrupt log %q: recovery leaked partial state %v", data, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("clean log %q: recovery failed: %v", data, err)
		}
		if len(got) != len(want) {
			t.Fatalf("log %q: recovered %v, want %v", data, got, want)
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || (gv != v && v == v) {
				t.Fatalf("log %q: recovered %v, want %v", data, got, want)
			}
		}
		// Recovery repairs a torn tail in place (truncating discarded
		// bytes so later appends cannot land after them); the repair
		// must be idempotent and must not change the recovered state.
		again, _, err := recoverGeneral(fs, "wal")
		if err != nil {
			t.Fatalf("log %q: second recovery failed after tail repair: %v", data, err)
		}
		if len(again) != len(got) {
			t.Fatalf("log %q: tail repair changed state: %v vs %v", data, again, got)
		}
		for k, v := range got {
			if gv, ok := again[k]; !ok || (gv != v && v == v) {
				t.Fatalf("log %q: tail repair changed state: %v vs %v", data, again, got)
			}
		}
	})
}

func TestLikeMatchTable(t *testing.T) {
	cases := []struct {
		s, pattern string
		want       bool
	}{
		{"FX01", "FX%", true},
		{"FX01", "%01", true},
		{"FX01", "%X0%", true},
		{"FX01", "FX01", true},
		{"FX01", "EQ%", false},
		{"FX01", "%02", false},
		{"FX01", "%", true}, // empty core matches anything
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "abc%", true},
		{"abc", "%abc", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pattern); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pattern, got, c.want)
		}
	}
}
