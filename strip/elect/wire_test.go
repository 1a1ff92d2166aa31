package elect

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/strip/internal/frame"
)

// allMessages is one of each message kind with every field populated,
// the codec's round-trip corpus.
func allMessages() []Msg {
	return []Msg{
		&Prepare{From: "a:1", Epoch: 7, Ballot: 13},
		&Promise{From: "b:2", Epoch: 7, Ballot: 13, OK: true, AccBallot: 4, AccValue: "a:1"},
		&Promise{From: "b:2", Epoch: 7, Ballot: 13, OK: false, Promised: 21},
		&Accept{From: "a:1", Epoch: 7, Ballot: 13, Value: "a:1"},
		&Accepted{From: "c:3", Epoch: 7, Ballot: 13, OK: true},
		&Accepted{From: "c:3", Epoch: 7, Ballot: 13, OK: false, Promised: 21},
		&Decided{From: "a:1", Epoch: 7, Value: "a:1"},
		&Ping{From: "b:2", Epoch: 7, Leader: "a:1"},
		&Ping{From: "b:2"}, // nothing decided yet: zero epoch, empty leader
		&Pong{From: "a:1", Epoch: 7, Leader: "a:1"},
		&Pong{From: "c:3"}, // nothing decided yet: zero epoch, empty leader
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		payload, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", m, err)
		}
		got, err := Decode(payload)
		if err != nil {
			t.Fatalf("Decode(Encode(%#v)): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip changed message:\n got %#v\nwant %#v", got, m)
		}
	}
}

// TestEncodeGolden pins the wire layout: a byte change here is a
// protocol break between mixed-version peers.
func TestEncodeGolden(t *testing.T) {
	payload, err := Encode(&Prepare{From: "ab", Epoch: 2, Ballot: 5})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	want := []byte{
		KindPrepare,
		0, 2, 'a', 'b', // from, u16-length-prefixed
		0, 0, 0, 0, 0, 0, 0, 2, // epoch
		0, 0, 0, 0, 0, 0, 0, 5, // ballot
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("golden mismatch:\n got %v\nwant %v", payload, want)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{99, 0, 1, 'a'}},
		{"truncated sender", []byte{KindPing, 0, 5, 'a'}},
		{"truncated epoch", []byte{KindDecided, 0, 1, 'a', 0, 0}},
		{"bad bool byte", append([]byte{KindAccepted, 0, 1, 'a'},
			0, 0, 0, 0, 0, 0, 0, 1, // epoch
			0, 0, 0, 0, 0, 0, 0, 1, // ballot
			7,                      // not 0/1
			0, 0, 0, 0, 0, 0, 0, 0, // promised
		)},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.payload); !errors.Is(err, frame.ErrMalformed) {
			t.Errorf("%s: Decode = %v, want frame.ErrMalformed", tc.name, err)
		}
	}
	// Trailing garbage after a valid message must be rejected too.
	payload, err := Encode(&Ping{From: "a"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(append(payload, 0xFF)); !errors.Is(err, frame.ErrMalformed) {
		t.Errorf("trailing byte: Decode = %v, want frame.ErrMalformed", err)
	}
}

// TestFrameRoundTrip sends every message kind back to back and reads
// them as serveConn does, through one reused frame buffer: each must
// decode to what was sent, unchanged by the reads after it.
func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	for _, m := range allMessages() {
		payload, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if stream, err = frame.Append(stream, payload, MaxFrame); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	r := bytes.NewReader(stream)
	var buf []byte
	var got []Msg
	for range allMessages() {
		msg, b, err := readMsg(r, buf)
		if err != nil {
			t.Fatalf("readMsg #%d: %v", len(got), err)
		}
		buf = b
		got = append(got, msg)
	}
	if !reflect.DeepEqual(got, allMessages()) {
		t.Fatalf("messages changed across the wire:\n got %#v\nwant %#v", got, allMessages())
	}
	if _, _, err := readMsg(r, buf); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestReadMsgAllocations pins the elect read path: once a connection's
// frame buffer is warm, reading a message allocates only what Decode
// does (the message and its strings), no frame buffer per message.
func TestReadMsgAllocations(t *testing.T) {
	payload, err := Encode(&Ping{From: "b:2", Epoch: 7, Leader: "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := frame.Append(nil, payload, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(stream)
	_, buf, err := readMsg(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(100, func() { _, _ = Decode(payload) })
	read := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		if _, buf, err = readMsg(r, buf); err != nil {
			t.Fatal(err)
		}
	})
	if decode != 3 || read != decode {
		t.Errorf("readMsg allocates %v times and Decode %v, want 3 each (the ping and its two strings)", read, decode)
	}
}
