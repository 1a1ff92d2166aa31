package frame

import (
	"bytes"
	"encoding/hex"
	"io"
	"testing"
)

// seedPayloads are both protocols' golden payloads — strip/repl's
// update, batch and snapshot, strip/elect's Prepare and its ledger —
// plus boundary junk: the corpus both fuzzers start from.
func seedPayloads(tb testing.TB) [][]byte {
	out := [][]byte{prepare, {}, {0xFF}, bytes.Repeat([]byte{0xFF}, 64)}
	for _, h := range []string{
		"01000000000000000717979cfe362a00013ffa94467381d7dc0101000b44454d2f5553442e4c4f4e000200036269643ffa8f5c28f5c28f000361736b3ffa9930be0ded29",
		"02000000000000000800000002000a6c6173742d70726963653ffa94467381d7dc0008706f736974696f6ec008000000000000",
		"030000000000000009000000010001410016345785d8a00000400400000000000000010001783ff00000000000000000000100016b4010000000000000",
		"010000000000000007000000000000000300076e313a34303031000000020000000000000004000000000000000b000000000000000b00076e323a343030320000000000000006000000000000000200000000000000000000",
	} {
		p, err := hex.DecodeString(h)
		if err != nil {
			tb.Fatalf("seed hex: %v", err)
		}
		out = append(out, p)
	}
	return out
}

// FuzzReadBuf asserts ReadBuf's contract on arbitrary bytes under an
// arbitrary cap: an error or a payload of 1..max bytes, never a panic,
// and an accepted frame is canonical — re-framing its payload gives
// back exactly the bytes read.
func FuzzReadBuf(f *testing.F) {
	for _, p := range seedPayloads(f) {
		if b, err := Append(nil, p, testMax); err == nil {
			f.Add(b, uint16(len(p)))
		}
		f.Add(p, uint16(testMax-1))
	}
	f.Fuzz(func(t *testing.T, stream []byte, max uint16) {
		payload, _, err := ReadBuf(bytes.NewReader(stream), nil, int(max))
		if err != nil {
			return
		}
		if len(payload) == 0 || len(payload) > int(max) {
			t.Fatalf("accepted a %d-byte payload under a cap of %d", len(payload), max)
		}
		again, err := Append(nil, payload, int(max))
		if err != nil || !bytes.Equal(again, stream[:len(again)]) {
			t.Fatalf("accepted frame does not re-frame to the bytes read: %v", err)
		}
	})
}

// FuzzStream reads a stream of frames through one reused buffer, as a
// connection does: the frames accepted before the first error re-frame
// to exactly the bytes consumed, and a clean EOF comes only at a frame
// boundary.
func FuzzStream(f *testing.F) {
	var pipe []byte
	for _, p := range seedPayloads(f) {
		pipe, _ = Append(pipe, p, testMax)
	}
	f.Add(pipe)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var buf, reframed []byte
		for {
			payload, b, err := ReadBuf(r, buf, testMax)
			buf = b
			if err == io.EOF && !bytes.Equal(reframed, stream) {
				t.Fatalf("clean EOF after %d of %d bytes", len(reframed), len(stream))
			}
			if err != nil {
				return
			}
			if reframed, err = Append(reframed, payload, testMax); err != nil || !bytes.HasPrefix(stream, reframed) {
				t.Fatalf("frame ending at byte %d does not re-frame to the bytes read: %v", len(reframed), err)
			}
		}
	})
}
