package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// testMax is the payload cap the tests frame under.
const testMax = 64 << 10

// prepare is strip/elect's golden Prepare{From: "ab", Epoch: 2,
// Ballot: 5} payload.
var prepare = []byte{1, 0, 2, 'a', 'b', 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5}

func mustAppend(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	b, err := Append(nil, payload, testMax)
	if err != nil {
		tb.Fatalf("Append: %v", err)
	}
	return b
}

// TestGolden pins the envelope's bytes: length, payload, IEEE CRC32,
// all big-endian. A change here breaks every peer of another version
// and every election ledger on disk.
func TestGolden(t *testing.T) {
	const want = "00000015" + "0100026162000000000000000200000000000000" + "05" + "5bb62595"
	if got := hex.EncodeToString(mustAppend(t, prepare)); got != want {
		t.Fatalf("envelope drifted from golden:\n got %s\nwant %s", got, want)
	}
}

// TestReadBuf is ReadBuf's contract, one row per way a stream can end:
// each stream must yield the payload (want nil) or the row's error,
// never a panic or a short payload, and Corrupt must tell bytes that
// condemn the peer from a link that merely ended or failed.
func TestReadBuf(t *testing.T) {
	good := mustAppend(t, prepare)
	var flips, cuts [][]byte
	for i := 0; i < len(good)*8; i++ {
		b := bytes.Clone(good)
		b[i/8] ^= 1 << (i % 8)
		flips = append(flips, b)
	}
	for cut := 1; cut < len(good); cut++ {
		cuts = append(cuts, good[:cut])
	}
	badSum := bytes.Clone(good)
	badSum[5] ^= 1
	overMax := binary.BigEndian.AppendUint32(nil, testMax+1)
	errLink := errors.New("connection reset")
	errAny := errors.New("any error")
	for _, c := range []struct {
		name    string
		streams [][]byte
		link    bool // end each stream with errLink instead of EOF
		want    error
		corrupt bool
	}{
		{"round trip", [][]byte{good}, false, nil, false},
		{"clean EOF", [][]byte{{}}, false, io.EOF, false},
		{"checksum", [][]byte{badSum}, false, ErrChecksum, true},
		{"truncated", cuts, false, ErrTruncated, true},
		{"link error inside a frame", [][]byte{good[:6]}, true, ErrTruncated, false},
		{"oversized", [][]byte{{0xFF, 0xFF, 0xFF, 0xFF}, overMax, {0, 0, 0, 0}}, false, ErrTooLarge, true},
		{"bit flip", flips, false, errAny, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf []byte
			for i, s := range c.streams {
				var r io.Reader = bytes.NewReader(s)
				if c.link {
					r = io.MultiReader(r, iotest.ErrReader(errLink))
				}
				payload, b, err := ReadBuf(r, buf, testMax)
				buf = b
				switch {
				case c.want == nil:
					if err != nil || !bytes.Equal(payload, prepare) {
						t.Fatalf("stream %d: payload %x, %v; want the payload back", i, payload, err)
					}
				case err == nil:
					t.Fatalf("stream %d accepted, payload %x", i, payload)
				case c.want != errAny && !errors.Is(err, c.want):
					t.Fatalf("stream %d: %v, want %v", i, err, c.want)
				case Corrupt(err) != c.corrupt:
					t.Fatalf("stream %d: Corrupt(%v) = %v, want %v", i, err, !c.corrupt, c.corrupt)
				}
			}
		})
	}
}

// TestAppendRejects pins the write side's bounds and End's in-place
// framing: an empty or over-cap payload is ErrTooLarge and leaves dst
// as it was; Begin/End produce Append's bytes.
func TestAppendRejects(t *testing.T) {
	dst := []byte("prefix")
	for _, p := range [][]byte{nil, make([]byte, testMax+1)} {
		if got, err := Append(dst, p, testMax); !errors.Is(err, ErrTooLarge) || !bytes.Equal(got, dst) {
			t.Errorf("Append(%d bytes) = %q, %v; want dst unchanged, ErrTooLarge", len(p), got, err)
		}
		if err := Write(io.Discard, p, testMax); !errors.Is(err, ErrTooLarge) {
			t.Errorf("Write(%d bytes) = %v, want ErrTooLarge", len(p), err)
		}
	}
	b, start := Begin(dst)
	b, err := End(append(b, prepare...), start, testMax)
	if want, _ := Append(dst, prepare, testMax); err != nil || !bytes.Equal(b, want) {
		t.Errorf("Begin/End = %x, %v; want Append's %x", b, err, want)
	}
}

// TestDecoder pins the cursor's latching: the first failed read
// returns an ErrMalformed error that every later read keeps, strings
// are copies, and Finish rejects leftovers.
func TestDecoder(t *testing.T) {
	b, _ := AppendString([]byte{7}, "ab")
	b = AppendBool(AppendF64(b, 2.5), true)
	d := NewDecoder(b)
	if d.U8() != 7 || d.Str() != "ab" || d.F64() != 2.5 || !d.Bool() || d.Finish() != nil {
		t.Fatalf("decoding its own encoding: %v", d.Err())
	}
	d = NewDecoder(b)
	d.U8()
	str := d.Str()
	b[3] = 'z'
	if str != "ab" {
		t.Errorf("Str aliases the payload: %q", str)
	}
	if d.F64(); d.U16() != 0 || d.Err() == nil || d.U8() != 0 || !errors.Is(d.Finish(), ErrMalformed) {
		t.Errorf("short read did not latch: %v", d.Err())
	}
	for _, c := range []struct {
		name string
		read func(d *Decoder)
	}{
		{"bool byte 2", func(d *Decoder) { d.Bool() }},
		{"u32 count overruns", func(d *Decoder) { d.Count32(1) }},
		{"u16 count overruns", func(d *Decoder) { d.Count16(1 << 12) }},
		{"trailing bytes", func(d *Decoder) { d.U8() }},
	} {
		d := NewDecoder([]byte{2, 0xFF, 0xFF, 0xFF})
		if c.read(&d); !errors.Is(d.Finish(), ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", c.name, d.Finish())
		}
	}
	if _, err := AppendString(nil, string(make([]byte, 1<<16))); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized string: %v, want ErrTooLarge", err)
	}
}

// TestAllocations pins framing's share of the per-update budget: what
// each call allocates once the caller's buffers have reached the
// frame's size.
func TestAllocations(t *testing.T) {
	good := mustAppend(t, prepare)
	scratch := make([]byte, 0, len(good))
	readBuf := make([]byte, len(good))
	r := bytes.NewReader(good)
	for _, c := range []struct {
		name string
		want float64
		why  string
		fn   func() error
	}{
		{"Append into scratch", 0, "the scratch is large enough", func() error {
			_, err := Append(scratch[:0], prepare, testMax)
			return err
		}},
		{"ReadBuf into a warm buffer", 0, "header and body both land in the reused buffer", func() error {
			r.Reset(good)
			_, _, err := ReadBuf(r, readBuf, testMax)
			return err
		}},
		{"Write", 1, "the assembled frame", func() error {
			return Write(io.Discard, prepare, testMax)
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
