package scenario

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/strip/fault"
)

// TestGateHoldsBootDialedLinks pins that a link dialed through gate
// before the partition schedule is published — replicas start dialing
// during boot, the schedule starts after it — still obeys the schedule
// once it is: inside a window an operation fails with ErrInjected and
// counts one fault. Without the per-operation lookup such a link would
// sail through every window, and a partition scenario could end with
// no fault injected.
func TestGateHoldsBootDialedLinks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()

	r := &rig{}
	conn, err := r.gate(func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	defer func() {
		if c := <-accepted; c != nil {
			c.Close()
		}
	}()
	if _, err := conn.Write([]byte("boot")); err != nil {
		t.Fatalf("write before the schedule is published: %v", err)
	}

	now := time.Unix(1000, 0)
	r.publishPartition(fault.NewPartition(func() time.Time { return now },
		fault.Window{Start: time.Second, End: 2 * time.Second}))
	if _, err := conn.Write([]byte("healed")); err != nil {
		t.Fatalf("write outside every window: %v", err)
	}
	if got := r.faults.Load(); got != 0 {
		t.Fatalf("%d faults counted outside every window, want 0", got)
	}

	now = now.Add(1500 * time.Millisecond)
	if _, err := conn.Write([]byte("cut")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write inside a window: err = %v, want ErrInjected", err)
	}
	if got := r.faults.Load(); got != 1 {
		t.Fatalf("%d faults counted inside the window, want 1", got)
	}
}
