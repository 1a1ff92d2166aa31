package elect

import (
	"bytes"
	"reflect"
	"testing"

	"repro/strip/internal/frame"
)

// electSeedPayloads are valid encodings plus boundary junk, mirroring
// the strip/repl fuzz corpus style.
func electSeedPayloads(tb testing.TB) [][]byte {
	var out [][]byte
	for _, m := range allMessages() {
		p, err := Encode(m)
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		out = append(out, p)
	}
	// The junk goes last, so a stream of all the seeds decodes its
	// valid messages before the first error ends it.
	return append(out,
		[]byte{},
		[]byte{KindPrepare},
		[]byte{KindPromise, 0, 1, 'a'},
		bytes.Repeat([]byte{0xFF}, 64),
	)
}

// FuzzElectDecode asserts Decode's contract on arbitrary payloads:
// a message or an error, never a panic, never both nil — and an
// accepted message re-encodes to the same bytes (the codec is
// canonical).
func FuzzElectDecode(f *testing.F) {
	for _, p := range electSeedPayloads(f) {
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
		if err != nil {
			return
		}
		again, err := Encode(msg)
		if err != nil {
			t.Fatalf("accepted message rejected on re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			back, err := Decode(again)
			if err != nil || !reflect.DeepEqual(back, msg) {
				t.Fatalf("re-encode of %#v not stable: %v", msg, err)
			}
		}
	})
}

// FuzzElectReadFrame drives serveConn's read path (see fuzzReceive)
// over single frames and raw payloads.
func FuzzElectReadFrame(f *testing.F) {
	for _, p := range electSeedPayloads(f) {
		if b, err := frame.Append(nil, p, MaxFrame); err == nil {
			f.Add(b)
		}
		f.Add(p)
	}
	f.Fuzz(fuzzReceive)
}

// FuzzElectFrameStream drives serveConn's read path (see fuzzReceive)
// over streams of several frames with arbitrary tails.
func FuzzElectFrameStream(f *testing.F) {
	var pipe []byte
	for _, p := range electSeedPayloads(f) {
		pipe, _ = frame.Append(pipe, p, MaxFrame)
	}
	f.Add(pipe)
	f.Add([]byte{})
	f.Fuzz(fuzzReceive)
}

// fuzzReceive reads stream with readMsg through one reused buffer, as
// serveConn does, until the first error. The envelope's own contract
// is fuzzed in strip/internal/frame; this is the layer above it: no
// decoded message may change when later frames overwrite the buffer.
func fuzzReceive(t *testing.T, stream []byte) {
	r := bytes.NewReader(stream)
	var buf []byte
	var msgs []Msg
	var seen [][]byte
	for {
		msg, b, err := readMsg(r, buf)
		buf = b
		if err != nil {
			break
		}
		enc, err := Encode(msg)
		if err != nil {
			t.Fatalf("accepted message rejected on re-encode: %v", err)
		}
		msgs, seen = append(msgs, msg), append(seen, enc)
	}
	for i, m := range msgs {
		if now, _ := Encode(m); !bytes.Equal(now, seen[i]) {
			t.Fatalf("message %d changed when the read buffer was reused: %#v", i, m)
		}
	}
}

// FuzzStateDecode asserts decodeState's contract on arbitrary
// payloads: a state or an error, never a panic, and an accepted
// payload re-encodes to the same bytes (encodeState sorts its entries,
// and decodeState accepts only sorted ones).
func FuzzStateDecode(f *testing.F) {
	good, err := encodeState(sampleState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{stateVersion})
	f.Add(ledgerPayload(1<<20, 0))
	f.Add(ledgerPayload(2, 6, 4))
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeState(payload)
		if err != nil {
			if st != nil {
				t.Fatalf("decodeState returned a state alongside error %v", err)
			}
			return
		}
		again, err := encodeState(st)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("accepted ledger re-encodes differently (%v):\n got %x\nwant %x", err, again, payload)
		}
	})
}
