package strip

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestDerivedRepeatedDependency defines a derived view over the same
// dependency twice: compute still receives one value per named
// dependency, but one install of it recomputes the view once and fires
// the view's trigger once.
func TestDerivedRepeatedDependency(t *testing.T) {
	db := mustOpenStepped(t, Config{Policy: UpdatesFirst})
	db.DefineView("a", Low)
	var computed [][]float64
	if err := db.DefineDerived("d", []string{"a", "a"}, func(vs []float64) float64 {
		computed = append(computed, vs)
		return vs[0] + vs[1]
	}); err != nil {
		t.Fatal(err)
	}
	var fired []float64
	if err := db.OnInstall("d", func(e Entry) { fired = append(fired, e.Value) }); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyUpdate(Update{Object: "a", Value: 3}); err != nil {
		t.Fatal(err)
	}
	for db.step() {
	}
	if want := [][]float64{{3, 3}}; !reflect.DeepEqual(computed, want) {
		t.Errorf("compute calls = %v, want %v", computed, want)
	}
	if want := []float64{6}; !reflect.DeepEqual(fired, want) {
		t.Errorf("trigger firings on d = %v, want %v", fired, want)
	}
}

// TestHooksFireInRegistrationOrder gives one view a derived dependant, a
// watcher, a trigger of its own and (registered last) a trigger on
// every view. An install fires the global trigger first, then the
// view's hooks in the order they were registered: the recompute — whose
// own hooks see the recomputed value — then the delivery, then the
// trigger. Each hook logs how many entries the watcher's channel holds,
// which places the delivery.
func TestHooksFireInRegistrationOrder(t *testing.T) {
	db := mustOpenStepped(t, Config{Policy: UpdatesFirst})
	db.DefineView("a", Low)
	if err := db.DefineDerived("d", []string{"a"}, func(vs []float64) float64 { return 10 * vs[0] }); err != nil {
		t.Fatal(err)
	}
	watch, cancel, err := db.Watch("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var log []string
	hook := func(who string) func(Entry) {
		return func(e Entry) {
			peek, err := db.Peek(e.Object)
			if err != nil {
				t.Error(err)
			}
			log = append(log, fmt.Sprintf("%s %s=%v peek=%v watched=%d", who, e.Object, e.Value, peek.Value, len(watch)))
		}
	}
	for _, reg := range []struct{ object, who string }{
		{"a", "own"},
		{"", "global"},
		{"d", "derived's"},
	} {
		if err := db.OnInstall(reg.object, hook(reg.who)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ApplyUpdate(Update{Object: "a", Value: 2}); err != nil {
		t.Fatal(err)
	}
	for db.step() {
	}
	want := []string{
		"global a=2 peek=2 watched=0",
		"global d=20 peek=20 watched=0",
		"derived's d=20 peek=20 watched=0",
		"own a=2 peek=2 watched=1",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("hooks fired\n got  %q\n want %q", log, want)
	}
	if e := <-watch; e.Object != "a" || e.Value != 2 {
		t.Errorf("watcher got %+v, want a=2", e)
	}
}

// TestHookedInstallAllocations pins what a hooked install costs beyond
// a hook-less one: nothing. Offering an update and installing it
// allocates the queued update alone, whether or not the view has an
// OnInstall trigger: the hooks fire from the lists the install
// captured, without a copy. A partial two-field offer to a record view
// whose only hook is a derived dependant costs 4: the update, the
// offer's copy of its fields (2) and the recompute's values slice. The
// recompute ignores the entry, so the install does not copy the fields
// again for it.
func TestHookedInstallAllocations(t *testing.T) {
	clock := newFakeClock()
	db := mustOpenStepped(t, Config{Policy: UpdatesFirst, Clock: clock.Now})
	db.DefineView("plain", Low)
	db.DefineView("hooked", Low)
	db.DefineView("record", Low)
	fired := 0
	if err := db.OnInstall("hooked", func(Entry) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineDerived("derived", []string{"record"}, func(vs []float64) float64 { return vs[0] }); err != nil {
		t.Fatal(err)
	}
	quote := map[string]float64{"bid": 99.5, "ask": 100.5}
	n := 0
	offerAndInstall := func(name string) func() {
		return func() {
			n++
			clock.Advance(time.Microsecond)
			u := Update{Object: name, Value: float64(n), Generated: clock.Now()}
			if name == "record" {
				u.Fields, u.Partial = quote, true
			}
			if err := db.ApplyUpdate(u); err != nil {
				t.Fatal(err)
			}
			if !db.step() {
				t.Fatal("nothing installed")
			}
		}
	}
	const warm, runs = 100, 100
	for _, c := range []struct {
		name string
		want float64
	}{{"plain", 1}, {"hooked", 1}, {"record", 4}} {
		for i := 0; i < warm; i++ {
			offerAndInstall(c.name)()
		}
		if allocs := testing.AllocsPerRun(runs, offerAndInstall(c.name)); allocs != c.want {
			t.Errorf("an offer to %s and its install allocate %v times, want %v", c.name, allocs, c.want)
		}
	}
	// AllocsPerRun makes one more call than it measures.
	if fired != warm+runs+1 {
		t.Errorf("the trigger fired %d times, want %d", fired, warm+runs+1)
	}
	if e, err := db.Peek("record"); err != nil || e.Fields["bid"] != 99.5 {
		t.Errorf("Peek(record) = %+v, %v; want the offered fields", e, err)
	}
}

// TestWatchCancelAndCloseRaceDelivery cancels one subscription and
// closes the database while the scheduler delivers to both it and a
// second one. Under the race detector it shows that cancel and Close
// order against a delivery without db.mu; either way, no delivery may
// send on a closed channel, and both channels end closed.
func TestWatchCancelAndCloseRaceDelivery(t *testing.T) {
	db, err := Open(Config{Policy: UpdatesFirst})
	if err != nil {
		t.Fatal(err)
	}
	db.DefineView("x", Low)
	cancelled, cancel, err := db.Watch("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := db.Watch("", 1)
	if err != nil {
		t.Fatal(err)
	}
	var feed sync.WaitGroup
	t.Cleanup(func() {
		db.Close()
		feed.Wait()
	})
	feed.Add(1)
	go func() {
		defer feed.Done()
		base := time.Now()
		for i := 1; ; i++ {
			// ErrClosed ends the feed once Close has run.
			if db.ApplyUpdate(Update{Object: "x", Value: float64(i), Generated: base.Add(time.Duration(i))}) != nil {
				return
			}
		}
	}()
	// Both subscriptions are being delivered to.
	for _, ch := range []<-chan Entry{cancelled, all} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("no delivery")
		}
	}
	var closers sync.WaitGroup
	closers.Add(2)
	go func() { defer closers.Done(); cancel() }()
	go func() { defer closers.Done(); db.Close() }()
	for _, ch := range []<-chan Entry{cancelled, all} {
		deadline := time.After(5 * time.Second)
	drain:
		for {
			select {
			case _, ok := <-ch:
				if !ok {
					break drain
				}
			case <-deadline:
				t.Fatal("channel not closed by cancel and Close")
			}
		}
	}
	closers.Wait()
}
