package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"testing"
	"time"

	"repro/strip"
	"repro/strip/obs"
)

// randomEvent draws one replication event under seq: updates with and
// without fields, partial or not, zero or set generation times, object
// names up to 300 bytes; batches of up to six writes. Every 2 000th
// event is a batch whose frame is larger than a ring chunk.
func randomEvent(rng *rand.Rand, seq uint64) strip.ReplEvent {
	pairs := func(n int) []strip.KeyValue {
		kvs := make([]strip.KeyValue, n)
		for i := range kvs {
			kvs[i] = strip.KeyValue{Key: fmt.Sprintf("k%d", rng.IntN(1000)), Value: rng.NormFloat64()}
		}
		return kvs
	}
	if seq%2000 == 0 {
		return strip.ReplEvent{Seq: seq, Kind: strip.ReplBatch, Writes: pairs(5000)}
	}
	if rng.IntN(4) == 0 {
		return strip.ReplEvent{Seq: seq, Kind: strip.ReplBatch, Writes: pairs(rng.IntN(7))}
	}
	ev := strip.ReplEvent{
		Seq: seq, Kind: strip.ReplUpdate,
		Object:     "fx/" + strings.Repeat("x", rng.IntN(300)),
		Importance: strip.Importance(rng.IntN(2)),
		Value:      rng.Float64(),
		Partial:    rng.IntN(2) == 0,
	}
	if rng.IntN(3) > 0 {
		ev.Generated = time.Unix(0, rng.Int64())
	}
	if rng.IntN(2) == 0 {
		ev.Fields = pairs(1 + rng.IntN(5))
	}
	return ev
}

// TestStreamBytesMatchEncodeEvent holds the stream a live primary
// serves to the codec: after the greeting and the bootstrap snapshot,
// every byte on the wire must be AppendFrame(EncodeEvent(ev)) of the
// published events in order, so a replica that frames each payload
// itself reads the ring's in-place frames unchanged.
func TestStreamBytesMatchEncodeEvent(t *testing.T) {
	const events = 6000
	db := openDB(t, strip.Config{Policy: strip.UpdatesFirst})
	p, addr := servePrimary(t, db, PrimaryConfig{RingFrames: events})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "RESUME 0 0\n"); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	br := bufio.NewReader(conn)
	if _, err := readGreeting(br); err != nil {
		t.Fatalf("greeting: %v", err)
	}
	snap, err := readFrame(br)
	if err != nil {
		t.Fatalf("bootstrap frame: %v", err)
	}
	if msg, err := Decode(snap); err != nil || msg.Seq() != 0 {
		t.Fatalf("bootstrap = %v, %v; want the snapshot at sequence 0", msg, err)
	}

	// The database stays idle, so the test is the only publisher.
	rng := rand.New(rand.NewPCG(28, 1))
	var want []byte
	for seq := uint64(1); seq <= events; seq++ {
		ev := randomEvent(rng, seq)
		payload, err := EncodeEvent(ev)
		if err != nil {
			t.Fatalf("EncodeEvent(%d): %v", seq, err)
		}
		if want, err = AppendFrame(want, payload); err != nil {
			t.Fatal(err)
		}
		p.publish(ev)
	}
	got := make([]byte, len(want))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(br, got); err != nil {
		t.Fatalf("reading %d stream bytes: %v", len(want), err)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("stream diverges from AppendFrame(EncodeEvent(ev)) at byte %d of %d", i, len(want))
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestPrimaryCountsDroppedEvents publishes an event whose object name
// overflows the wire's u16 string length between two good ones: it
// must be counted as dropped, not as captured, and the next event must
// reset the ring so no reader resumes across the hole.
func TestPrimaryCountsDroppedEvents(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPrimary(openDB(t, strip.Config{}), PrimaryConfig{Metrics: reg})
	defer p.Close()
	ev := strip.ReplEvent{Kind: strip.ReplUpdate, Object: "x", Value: 1}
	for seq := uint64(1); seq <= 3; seq++ {
		ev.Seq = seq
		ev.Object = "x"
		if seq == 2 {
			ev.Object = strings.Repeat("k", 1<<16)
		}
		p.publish(ev)
	}
	for name, want := range map[string]float64{
		"strip_repl_primary_events_total":         2,
		"strip_repl_primary_events_dropped_total": 1,
	} {
		if v, _ := reg.Value(name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if p.ring.resumable(2) || !p.ring.resumable(3) {
		t.Errorf("ring still resumable across the dropped event (resumable(2)=%v, resumable(3)=%v)",
			p.ring.resumable(2), p.ring.resumable(3))
	}
}

// TestReplicaCountsLostSessions plays a primary over net.Pipe: a
// greeting and a snapshot at sequence 5, then injected bytes. A session
// that ends on a corrupt frame must add one to
// strip_repl_replica_corrupt_frames_total, one that ends on a sequence
// gap one to strip_repl_replica_seq_gaps_total, and one that ends
// cleanly at a frame boundary neither.
func TestReplicaCountsLostSessions(t *testing.T) {
	frame := func(payload []byte) []byte {
		b, err := AppendFrame(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	update := func(seq uint64) []byte {
		b, err := EncodeEvent(strip.ReplEvent{Seq: seq, Kind: strip.ReplUpdate, Object: "x", Value: 1})
		if err != nil {
			t.Fatal(err)
		}
		return frame(b)
	}
	badCRC := update(6)
	badCRC[len(badCRC)-1] ^= 1
	for _, c := range []struct {
		name          string
		inject        []byte
		corrupt, gaps float64
	}{
		{"clean end", update(6), 0, 0},
		{"checksum", badCRC, 1, 0},
		{"truncation", update(6)[:10], 1, 0},
		{"oversize", []byte{0xFF, 0xFF, 0xFF, 0xFF}, 1, 0},
		{"malformed", frame([]byte{99, 0, 0, 0, 0, 0, 0, 0, 6}), 1, 0},
		{"sequence gap", update(7), 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			snap, err := EncodeSnapshot(strip.Snapshot{Seq: 5})
			if err != nil {
				t.Fatal(err)
			}
			client, server := net.Pipe()
			redial := make(chan struct{})
			dials := 0
			reg := obs.NewRegistry()
			r, err := StartReplica(openDB(t, strip.Config{}), ReplicaConfig{
				Dial: func() (net.Conn, error) {
					if dials++; dials == 1 {
						return client, nil
					}
					if dials == 2 {
						close(redial) // the first session is over
					}
					return nil, errors.New("no more sessions")
				},
				BackoffBase: time.Millisecond, Seed: 1, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			br := bufio.NewReader(server)
			if _, err := br.ReadString('\n'); err != nil {
				t.Fatalf("handshake: %v", err)
			}
			out := append([]byte("EPOCH 7\n"), frame(snap)...)
			// Write errors are expected once the replica drops the session.
			server.Write(append(out, c.inject...))
			server.Close()
			select {
			case <-redial:
			case <-time.After(5 * time.Second):
				t.Fatal("replica did not end the session")
			}
			for name, want := range map[string]float64{
				"strip_repl_replica_corrupt_frames_total": c.corrupt,
				"strip_repl_replica_seq_gaps_total":       c.gaps,
			} {
				if v, _ := reg.Value(name); v != want {
					t.Errorf("%s = %v, want %v", name, v, want)
				}
			}
		})
	}
}
