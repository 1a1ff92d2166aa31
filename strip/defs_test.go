package strip

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

// newBareRegistry returns a database holding nothing but an empty
// definitions table, for tests of the table alone.
func newBareRegistry() *DB {
	db := &DB{seed: maphash.MakeSeed()}
	db.defs.Store(newDefTable(minIndex))
	return db
}

// colliders returns n names whose hashes under seed agree in their low
// bits bits: in a table whose index has at most 1<<bits slots they all
// probe from the same slot.
func colliders(seed maphash.Seed, n, bits int) []string {
	mask := uint64(1)<<bits - 1
	want := maphash.String(seed, "c0") & mask
	out := []string{"c0"}
	for i := 1; len(out) < n; i++ {
		name := fmt.Sprintf("c%d", i)
		if maphash.String(seed, name)&mask == want {
			out = append(out, name)
		}
	}
	return out
}

// FuzzRegistryMatchesMap runs scripts of definitions and lookups
// against the definitions table and a map[string]viewRef reference. A
// script byte's top two bits pick the operation, the low six its
// argument: define a plain view, define a derived view (both refused
// for a name the reference already holds, as DefineView does), look a
// name up, or define a run of fresh names, which drives the table
// through its growth. The names include eight whose hashes agree in
// their low eight bits, so every table of up to 256 slots sees them
// probe over one another.
func FuzzRegistryMatchesMap(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x80, 0x81, 0x02})
	f.Add([]byte{0x3f, 0xff, 0x3f, 0xbf, 0x00, 0x01, 0x02, 0x03, 0x84, 0x85})
	f.Add([]byte{0xc0, 0x10, 0x51, 0xe0, 0x92, 0xd3, 0x13, 0x94})
	f.Fuzz(func(t *testing.T, script []byte) {
		db := newBareRegistry()
		pool := append(colliders(db.seed, 8, 8), "", "a", "b", "ab", "ba", "x/y", "DEM/USD.LON", "\x00")
		ref := make(map[string]viewRef)
		order := []string(nil)
		fresh := 0
		define := func(name string, class Importance, derived bool) {
			_, known := ref[name]
			if _, dup := db.lookup(name); dup != known {
				t.Fatalf("lookup(%q) reports defined=%v, the reference %v", name, dup, known)
			}
			if known {
				return
			}
			db.mu.Lock()
			id := db.addDefLocked(name, class, derived)
			db.mu.Unlock()
			if int(id) != len(order) {
				t.Fatalf("definition %d of %q got id %d", len(order), name, id)
			}
			ref[name] = viewRef{id: id, class: class, derived: derived}
			order = append(order, name)
		}
		for _, b := range script {
			op, arg := b>>6, int(b&63)
			name := pool[arg%len(pool)]
			switch op {
			case 0:
				define(name, Importance(arg&1), false)
			case 1:
				define(name, Low, true)
			case 2:
				got, ok := db.lookup(name)
				want, known := ref[name]
				if ok != known || got != want {
					t.Fatalf("lookup(%q) = %+v, %v; want %+v, %v", name, got, ok, want, known)
				}
			case 3:
				for range arg + 1 {
					define(fmt.Sprintf("n%d", fresh), Importance(fresh&1), false)
					fresh++
				}
			}
		}
		tab := db.defs.Load()
		if db.nviews > tab.capacity() {
			t.Fatalf("%d views in a table of capacity %d", db.nviews, tab.capacity())
		}
		for id, name := range order {
			if got, ok := db.lookup(name); !ok || got != ref[name] {
				t.Fatalf("final lookup(%q) = %+v, %v; want %+v", name, got, ok, ref[name])
			}
			if db.nameLocked(model.ObjectID(id)) != name {
				t.Fatalf("nameLocked(%d) = %q, want %q", id, db.nameLocked(model.ObjectID(id)), name)
			}
		}
		if _, ok := db.lookup(fmt.Sprintf("n%d", fresh)); ok {
			t.Fatal("a name never defined resolves")
		}
	})
}

// TestLookupsWhileTableGrows resolves names without a lock while
// another goroutine defines views through several growths of the
// table: a view whose DefineView has returned always resolves, to its
// own id and class, and a name never defined never does. Run under
// -race (make race).
func TestLookupsWhileTableGrows(t *testing.T) {
	const views, readers = 3000, 3
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	names := make([]string, views)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	var defined atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				n := defined.Load()
				if n == 0 {
					runtime.Gosched()
					continue
				}
				id := i % int(n)
				ref, ok := db.lookup(names[id])
				if !ok || ref.id != model.ObjectID(id) || ref.class != Importance(id&1) || ref.derived {
					errs <- fmt.Sprintf("lookup(%q) = %+v, %v after its definition returned", names[id], ref, ok)
					return
				}
				if _, ok := db.lookup("never"); ok {
					errs <- "an undefined name resolved"
					return
				}
			}
		}()
	}
	for i, name := range names {
		if err := db.DefineView(name, Importance(i&1)); err != nil {
			t.Fatal(err)
		}
		defined.Store(int64(i + 1))
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestLateDefinitionsAreLinear: once a lock-free lookup has happened,
// defining views costs a bounded number of allocated bytes each, not a
// copy of everything defined before. Measured as allocated bytes, not
// time, so a loaded machine cannot hide a regression; a registry that
// copied its index on every definition allocates megabytes per view
// here.
func TestLateDefinitionsAreLinear(t *testing.T) {
	const n = 10000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("v%05d", i)
	}
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	if err := db.DefineView("first", Low); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyUpdate(Update{Object: "first", Value: 1}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range names {
		if err := db.DefineView(name, Low); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDef := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f B allocated per late definition", perDef)
	if perDef > 256 {
		t.Errorf("defining %d views after an offer allocated %.0f B per definition, want at most 256", n, perDef)
	}
}
