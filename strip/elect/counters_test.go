package elect

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/strip/fault"
	"repro/strip/internal/frame"
	"repro/strip/obs"
)

// quietTiming keeps the protocol's own timers from sending anything
// while a test drives the node by hand.
func quietTiming() Timing {
	return Timing{ProbeInterval: time.Hour, FailAfter: time.Hour, PhaseTimeout: time.Hour}
}

// newCountingNode starts node "a" of the two-node membership {a, b}
// with a registry attached.
func newCountingNode(t *testing.T, cfg Config) (*Node, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Self, cfg.Peers, cfg.Metrics = "a", []string{"a", "b"}, reg
	cfg.Timing = quietTiming()
	if cfg.Dial == nil {
		cfg.Dial = func(string) (net.Conn, error) { return nil, errors.New("peer down") }
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, reg
}

func frameBytes(t *testing.T, payload []byte) []byte {
	t.Helper()
	b, err := frame.Append(nil, payload, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeConnCountsCorruptFrames plays a peer over net.Pipe: a
// connection dropped on a checksum mismatch, an impossible length, a
// stream that ends inside a frame or a payload that does not decode
// adds one to strip_elect_corrupt_frames_total; a clean EOF between
// frames or an expired read deadline adds nothing.
func TestServeConnCountsCorruptFrames(t *testing.T) {
	ping, err := Encode(&Ping{From: "b", Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := frameBytes(t, ping)
	badSum := frameBytes(t, ping)
	badSum[len(badSum)-1] ^= 0x01
	tooLong := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	cases := []struct {
		name   string
		inject []byte
		hold   bool // keep the connection open until the read deadline
		want   float64
	}{
		{"clean EOF", good, false, 0},
		{"checksum", badSum, false, 1},
		{"impossible length", tooLong, false, 1},
		{"zero length", make([]byte, 4), false, 1},
		{"ends inside a frame", good[:len(good)-3], false, 1},
		{"undecodable payload", frameBytes(t, []byte{0xff, 0x00}), false, 1},
		{"read deadline inside a frame", good[:2], true, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, reg := newCountingNode(t, Config{IOTimeout: 50 * time.Millisecond})
			defer n.Close()
			client, server := net.Pipe()
			served := make(chan struct{})
			go func() {
				// Write errors are expected once the node drops the
				// connection.
				client.Write(append(append([]byte(nil), good...), c.inject...))
				if c.hold {
					<-served
				}
				client.Close()
			}()
			n.wg.Add(1)
			n.serveConn(server)
			close(served)
			if v, _ := reg.Value("strip_elect_corrupt_frames_total"); v != c.want {
				t.Errorf("strip_elect_corrupt_frames_total = %v, want %v", v, c.want)
			}
		})
	}
}

// TestDispatchCountsDroppedMessages fills a peer's outbound queue while
// its sender is stuck dialing: every message beyond the queue's 64
// slots adds one to strip_elect_dropped_messages_total.
func TestDispatchCountsDroppedMessages(t *testing.T) {
	release := make(chan struct{})
	dialing := make(chan struct{}, 1)
	n, reg := newCountingNode(t, Config{Dial: func(string) (net.Conn, error) {
		select {
		case dialing <- struct{}{}:
		default:
		}
		<-release
		return nil, errors.New("peer down")
	}})
	defer n.Close()
	defer close(release)

	ping := Envelope{To: "b", Msg: &Ping{From: "a"}}
	n.dispatch([]Envelope{ping}, nil)
	<-dialing // the sender holds the first message; the queue is empty
	envs := make([]Envelope, 64+3)
	for i := range envs {
		envs[i] = ping
	}
	n.dispatch(envs, nil)
	if v, _ := reg.Value("strip_elect_dropped_messages_total"); v != 3 {
		t.Errorf("strip_elect_dropped_messages_total = %v, want 3", v)
	}
}

// TestPersistCountsFailures fails the state file's writes: a campaign,
// which must reach disk before its prepares reach the wire, adds one to
// strip_elect_persist_failures_total.
func TestPersistCountsFailures(t *testing.T) {
	fs := fault.NewMemFS()
	n, reg := newCountingNode(t, Config{StatePath: "ledger", FS: fs})
	defer n.Close()
	fs.SetInjector(func(op fault.Op) (int, error) {
		if op.Kind == fault.OpWrite {
			return 0, errors.New("disk full")
		}
		return 0, nil
	})
	n.Campaign()
	if v, _ := reg.Value("strip_elect_persist_failures_total"); v != 1 {
		t.Errorf("strip_elect_persist_failures_total = %v, want 1", v)
	}
}
