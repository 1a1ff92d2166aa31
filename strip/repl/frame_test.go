package repl

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/strip"
	"repro/strip/internal/frame"
)

// testUpdateEvent is the fixed update event behind the golden vector.
func testUpdateEvent() strip.ReplEvent {
	return strip.ReplEvent{
		Seq: 7, Kind: strip.ReplUpdate, Object: "DEM/USD.LON",
		Importance: strip.High, Value: 1.6612, Partial: true,
		Generated: time.Unix(0, 1700000000000000001),
		Fields:    []strip.KeyValue{{Key: "bid", Value: 1.66}, {Key: "ask", Value: 1.6624}},
	}
}

// testBatchEvent is the fixed batch event behind the golden vector.
func testBatchEvent() strip.ReplEvent {
	return strip.ReplEvent{
		Seq: 8, Kind: strip.ReplBatch,
		Writes: []strip.KeyValue{{Key: "last-price", Value: 1.6612}, {Key: "position", Value: -3}},
	}
}

// testSnapshot is the fixed snapshot behind the golden vector.
func testSnapshot() strip.Snapshot {
	return strip.Snapshot{
		Seq: 9,
		Views: []strip.SnapshotView{{
			Name: "A", Importance: strip.Low, Value: 2.5,
			Generated: time.Unix(0, 1600000000000000000),
			Fields:    []strip.KeyValue{{Key: "x", Value: 1}},
		}},
		General: []strip.KeyValue{{Key: "k", Value: 4}},
	}
}

// TestEncodeGolden pins the wire format: any layout change must be a
// deliberate protocol revision, not an accident.
func TestEncodeGolden(t *testing.T) {
	golden := map[string]struct {
		got []byte
		hex string
	}{}
	up, err := EncodeEvent(testUpdateEvent())
	if err != nil {
		t.Fatalf("EncodeEvent(update): %v", err)
	}
	golden["update"] = struct {
		got []byte
		hex string
	}{up, "01000000000000000717979cfe362a00013ffa94467381d7dc0101000b44454d2f5553442e4c4f4e000200036269643ffa8f5c28f5c28f000361736b3ffa9930be0ded29"}
	ba, err := EncodeEvent(testBatchEvent())
	if err != nil {
		t.Fatalf("EncodeEvent(batch): %v", err)
	}
	golden["batch"] = struct {
		got []byte
		hex string
	}{ba, "02000000000000000800000002000a6c6173742d70726963653ffa94467381d7dc0008706f736974696f6ec008000000000000"}
	sn, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	golden["snapshot"] = struct {
		got []byte
		hex string
	}{sn, "030000000000000009000000010001410016345785d8a00000400400000000000000010001783ff00000000000000000000100016b4010000000000000"}

	for name, g := range golden {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("bad golden hex for %s: %v", name, err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s payload drifted from golden:\n got %x\nwant %x", name, g.got, want)
		}
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	ev := testUpdateEvent()
	payload, err := EncodeEvent(ev)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	msg, err := Decode(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	m, ok := msg.(*UpdateMsg)
	if !ok {
		t.Fatalf("decoded %T, want *UpdateMsg", msg)
	}
	want := &UpdateMsg{
		Sequence: 7, Object: "DEM/USD.LON", Importance: strip.High,
		Partial: true, Value: 1.6612, Generated: 1700000000000000001,
		Fields: ev.Fields,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", m, want)
	}
	if m.Seq() != 7 {
		t.Errorf("Seq() = %d, want 7", m.Seq())
	}
}

func TestBatchRoundTrip(t *testing.T) {
	payload, err := EncodeEvent(testBatchEvent())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	msg, err := Decode(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	m, ok := msg.(*BatchMsg)
	if !ok {
		t.Fatalf("decoded %T, want *BatchMsg", msg)
	}
	want := &BatchMsg{Sequence: 8, Writes: testBatchEvent().Writes}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", m, want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	payload, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	msg, err := Decode(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	m, ok := msg.(*SnapshotMsg)
	if !ok {
		t.Fatalf("decoded %T, want *SnapshotMsg", msg)
	}
	if !reflect.DeepEqual(m.Snap, testSnapshot()) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", m.Snap, testSnapshot())
	}
	// Equal snapshots must encode to equal bytes (convergence checks
	// compare encodings).
	again, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(payload, again) {
		t.Errorf("equal snapshots encoded differently")
	}
}

// TestFrameAllocations pins the payload codec's share of the
// per-update budget on the replication path, for the field-less update
// the primary publishes per install. The envelope's own pins (framing
// into scratch, reading into a warm buffer) are in strip/internal/frame.
func TestFrameAllocations(t *testing.T) {
	ev := strip.ReplEvent{Seq: 7, Kind: strip.ReplUpdate, Object: "DEM/USD.LON", Value: 1.6612, Generated: time.Unix(0, 1700000000000000001)}
	payload, err := EncodeEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want float64
		why  string
		fn   func() error
	}{
		{"EncodeEvent", 1, "the payload it returns", func() error {
			_, err := EncodeEvent(ev)
			return err
		}},
		{"Decode", 2, "the decoded message + the object name", func() error {
			_, err := Decode(payload)
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.fn(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if allocs != c.want {
			t.Errorf("%s allocates %v times, want %v (%s)", c.name, allocs, c.want, c.why)
		}
	}
}

// TestDecodeTruncatedPayloads decodes every prefix of every valid
// payload: all must error (never panic, never a partial message).
func TestDecodeTruncatedPayloads(t *testing.T) {
	up, _ := EncodeEvent(testUpdateEvent())
	ba, _ := EncodeEvent(testBatchEvent())
	sn, _ := EncodeSnapshot(testSnapshot())
	for _, payload := range [][]byte{up, ba, sn} {
		for cut := 0; cut < len(payload); cut++ {
			if msg, err := Decode(payload[:cut]); err == nil {
				t.Fatalf("Decode accepted truncated payload (%d of %d bytes): %+v", cut, len(payload), msg)
			}
		}
	}
}

func TestDecodeMalformed(t *testing.T) {
	up, _ := EncodeEvent(testUpdateEvent())
	// A class the replica's scheduler has no queue partition for.
	badEv := testUpdateEvent()
	badEv.Importance = 2
	badUp, _ := EncodeEvent(badEv)
	badSnap := testSnapshot()
	badSnap.Views[len(badSnap.Views)-1].Importance = 255
	badSn, _ := EncodeSnapshot(badSnap)
	cases := map[string][]byte{
		"unknown kind":             {99, 0, 0, 0, 0, 0, 0, 0, 1},
		"trailing bytes":           append(bytes.Clone(up), 0xAA),
		"update importance":        badUp,
		"snapshot view importance": badSn,
		"absurd batch count": {KindBatch, 0, 0, 0, 0, 0, 0, 0, 1,
			0xFF, 0xFF, 0xFF, 0xFF},
		"absurd view count": {KindSnapshot, 0, 0, 0, 0, 0, 0, 0, 1,
			0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, payload := range cases {
		if msg, err := Decode(payload); err == nil {
			t.Errorf("%s: accepted as %+v", name, msg)
		} else if !errors.Is(err, frame.ErrMalformed) {
			t.Errorf("%s: got %v, want frame.ErrMalformed", name, err)
		}
	}
}

func TestEncodeRejectsOversizedStrings(t *testing.T) {
	long := strings.Repeat("k", math.MaxUint16+1)
	if _, err := EncodeEvent(strip.ReplEvent{Kind: strip.ReplUpdate, Object: long}); !errors.Is(err, frame.ErrTooLarge) {
		t.Errorf("oversized object name: got %v, want frame.ErrTooLarge", err)
	}
	if _, err := EncodeEvent(strip.ReplEvent{Kind: strip.ReplBatch,
		Writes: []strip.KeyValue{{Key: long}}}); !errors.Is(err, frame.ErrTooLarge) {
		t.Errorf("oversized write key: got %v, want frame.ErrTooLarge", err)
	}
	if _, err := EncodeEvent(strip.ReplEvent{Kind: strip.ReplEventKind(42)}); !errors.Is(err, frame.ErrMalformed) {
		t.Errorf("unknown event kind: got %v, want frame.ErrMalformed", err)
	}
}
