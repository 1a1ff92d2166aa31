package strip

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestViewFootprint pins what a defined view costs: the catalog record
// is 40 bytes, and the heap grows by at most 100 bytes per view while
// 10 000 views are defined — the record with its append slack plus the
// name map's slot (DESIGN §4). The names are built before the first
// reading, so only the database's own structures are weighed.
func TestViewFootprint(t *testing.T) {
	if size := unsafe.Sizeof(view{}); size != 40 {
		t.Fatalf("unsafe.Sizeof(view{}) = %d, want 40", size)
	}
	const n = 10000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("v%05d", i)
	}
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	before := liveHeap()
	for _, name := range names {
		if err := db.DefineView(name, Low); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(db)
	perView := float64(int64(after)-int64(before)) / n
	t.Logf("heap grew %.1f B per view", perView)
	if perView > 100 {
		t.Errorf("defining %d views grew the heap by %.1f B per view, want at most 100", n, perView)
	}
}

// liveHeap returns the heap in use after two collections: the first
// frees what was garbage, the second what its finalizers released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestGenerationBoundaries pins the catalog's generation axis at its
// edges: the zero time means "no state" in both directions, and every
// real generation — the Unix epoch itself and instants before it
// included — is newer than a view holding none.
func TestGenerationBoundaries(t *testing.T) {
	t.Run("never installed", func(t *testing.T) {
		db := mustOpen(t, Config{Policy: UpdatesFirst, MaxAge: time.Hour})
		db.DefineView("x", Low)
		e, err := db.Peek("x")
		if err != nil {
			t.Fatal(err)
		}
		if !e.Generated.IsZero() || !e.Stale {
			t.Fatalf("never-installed view: generated %v, stale %v; want the zero time, stale under MA", e.Generated, e.Stale)
		}
	})

	t.Run("epoch and before", func(t *testing.T) {
		db := mustOpen(t, Config{Policy: UpdatesFirst})
		gens := map[string]time.Time{
			"epoch": time.Unix(0, 0),
			"1969":  time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC),
		}
		for name, gen := range gens {
			db.DefineView(name, Low)
			if err := db.ApplyUpdate(Update{Object: name, Value: 1, Generated: gen}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 2 })
		for name, gen := range gens {
			e, _ := db.Peek(name)
			if e.Value != 1 || !e.Generated.Equal(gen) {
				t.Errorf("%s: value %v generated %v, want 1 at %v", name, e.Value, e.Generated, gen)
			}
		}
	})

	t.Run("derived over a blank dependency", func(t *testing.T) {
		db := mustOpen(t, Config{Policy: UpdatesFirst})
		db.DefineView("a", Low)
		db.DefineView("b", Low)
		if err := db.DefineDerived("sum", []string{"a", "b"}, func(v []float64) float64 { return v[0] + v[1] }); err != nil {
			t.Fatal(err)
		}
		db.ApplyUpdate(Update{Object: "a", Value: 2, Generated: time.Now()})
		waitFor(t, time.Second, func() bool {
			e, _ := db.Peek("sum")
			return e.Value == 2
		})
		if e, _ := db.Peek("sum"); !e.Generated.IsZero() {
			t.Fatalf("derived view over a blank dependency generated at %v, want the zero time", e.Generated)
		}
	})

	t.Run("blanked by reset", func(t *testing.T) {
		db := mustOpen(t, Config{Policy: UpdatesFirst})
		db.DefineView("x", Low)
		db.ApplyUpdate(Update{Object: "x", Value: 1, Generated: time.Now()})
		waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 1 })
		if err := db.ResetToSnapshot(Snapshot{}); err != nil {
			t.Fatal(err)
		}
		if e, _ := db.Peek("x"); !e.Generated.IsZero() || e.Value != 0 {
			t.Fatalf("blanked view: %+v", e)
		}
		old := time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC)
		db.ApplyUpdate(Update{Object: "x", Value: 2, Generated: old})
		waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 2 })
		if e, _ := db.Peek("x"); e.Value != 2 || !e.Generated.Equal(old) {
			t.Fatalf("install over a blanked view: %+v, want 2 at %v", e, old)
		}
	})
}

// TestResetStartsHistoryAtSnapshot pins that ResetToSnapshot drops the
// deposed history's versions: a reset view's history starts at the
// adopted version, even when that version is older than the ones it
// replaces, and a blanked view keeps none.
func TestResetStartsHistoryAtSnapshot(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst, HistoryDepth: 8})
	db.DefineView("x", Low)
	db.DefineView("gone", Low)
	for _, sec := range []int64{10, 20} {
		db.ApplyUpdate(Update{Object: "x", Value: float64(sec), Generated: time.Unix(sec, 0)})
		db.ApplyUpdate(Update{Object: "gone", Value: float64(sec), Generated: time.Unix(sec, 0)})
	}
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 4 })

	err := db.ResetToSnapshot(Snapshot{Views: []SnapshotView{
		{Name: "x", Importance: Low, Value: 15, Generated: time.Unix(15, 0)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	hist, _ := db.History("x")
	if len(hist) != 1 || hist[0].Value != 15 || !hist[0].Generated.Equal(time.Unix(15, 0)) {
		t.Errorf("History(x) after reset = %+v, want only the snapshot version 15", hist)
	}
	if _, err := db.HistoryAt("x", time.Unix(12, 0)); !errors.Is(err, ErrNoHistory) {
		t.Errorf("ReadAsOf(12) after reset: %v, want ErrNoHistory", err)
	}
	if e, err := db.HistoryAt("x", time.Unix(30, 0)); err != nil || e.Value != 15 {
		t.Errorf("ReadAsOf(30) after reset = %+v, %v; want 15", e, err)
	}
	if hist, _ := db.History("gone"); len(hist) != 0 {
		t.Errorf("History(gone) after the reset blanked it = %+v, want none", hist)
	}
}
