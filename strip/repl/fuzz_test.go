package repl

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/strip/internal/frame"
)

// seedPayloads are valid encodings plus boundary junk, the corpus both
// fuzzers start from.
func seedPayloads(tb testing.TB) [][]byte {
	up, err := EncodeEvent(testUpdateEvent())
	if err != nil {
		tb.Fatalf("seed encode: %v", err)
	}
	ba, err := EncodeEvent(testBatchEvent())
	if err != nil {
		tb.Fatalf("seed encode: %v", err)
	}
	sn, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		tb.Fatalf("seed encode: %v", err)
	}
	return [][]byte{
		up, ba, sn,
		{},
		{KindUpdate},
		{KindBatch, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		{KindSnapshot, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		bytes.Repeat([]byte{0xFF}, 64),
	}
}

// FuzzFrameDecode asserts Decode's contract on arbitrary payloads:
// return a message or an error, never panic, never both nil.
func FuzzFrameDecode(f *testing.F) {
	for _, p := range seedPayloads(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg, err := Decode(payload)
		if err == nil && msg == nil {
			t.Fatalf("Decode returned neither message nor error")
		}
		if err != nil && msg != nil {
			t.Fatalf("Decode returned a partial message alongside error %v", err)
		}
	})
}

// FuzzReadFrame drives the replica's receive path (see fuzzReceive)
// over single frames and raw payloads.
func FuzzReadFrame(f *testing.F) {
	for _, p := range seedPayloads(f) {
		if b, err := AppendFrame(nil, p); err == nil {
			f.Add(b)
		}
		f.Add(p)
	}
	f.Fuzz(fuzzReceive)
}

// FuzzFrameStream drives the replica's receive path (see fuzzReceive)
// over streams of several frames with arbitrary tails.
func FuzzFrameStream(f *testing.F) {
	var pipe []byte
	for _, p := range seedPayloads(f) {
		pipe, _ = AppendFrame(pipe, p)
	}
	f.Add(pipe)
	f.Add([]byte{})
	f.Fuzz(fuzzReceive)
}

// fuzzReceive reads stream as a replica session does — frames through
// one reused buffer, each payload decoded — until the first error. The
// envelope's own contract is fuzzed in strip/internal/frame; this is
// the layer above it: Decode must copy everything out of the buffer,
// so no decoded message may change when later frames overwrite it.
func fuzzReceive(t *testing.T, stream []byte) {
	r := bytes.NewReader(stream)
	var buf []byte
	var msgs []Msg
	var seen []string
	for {
		payload, b, err := frame.ReadBuf(r, buf, MaxFrame)
		buf = b
		if err != nil {
			break
		}
		msg, err := Decode(payload)
		if err != nil {
			break
		}
		msgs = append(msgs, msg)
		seen = append(seen, fmt.Sprint(msg))
	}
	for i, m := range msgs {
		if now := fmt.Sprint(m); now != seen[i] {
			t.Fatalf("message %d changed when the read buffer was reused:\n was %s\n now %s", i, seen[i], now)
		}
	}
}

// readFrame reads one frame's payload into a fresh buffer.
func readFrame(r io.Reader) ([]byte, error) {
	payload, _, err := frame.ReadBuf(r, nil, MaxFrame)
	return payload, err
}
