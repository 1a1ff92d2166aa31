package strip

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// --- Triggers ---

func TestOnInstallTrigger(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	db.DefineView("x", Low)
	var mu sync.Mutex
	var fired []Entry
	if err := db.OnInstall("x", func(e Entry) {
		mu.Lock()
		fired = append(fired, e)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	db.ApplyUpdate(Update{Object: "x", Value: 5})
	waitFor(t, time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(fired) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if fired[0].Object != "x" || fired[0].Value != 5 {
		t.Fatalf("trigger entry = %+v", fired[0])
	}
}

func TestGlobalTrigger(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	db.DefineView("a", Low)
	db.DefineView("b", Low)
	var mu sync.Mutex
	seen := map[string]int{}
	db.OnInstall("", func(e Entry) {
		mu.Lock()
		seen[e.Object]++
		mu.Unlock()
	})
	db.ApplyUpdate(Update{Object: "a", Value: 1})
	db.ApplyUpdate(Update{Object: "b", Value: 2})
	waitFor(t, time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen["a"] == 1 && seen["b"] == 1
	})
}

func TestTriggerUnknownObject(t *testing.T) {
	db := mustOpen(t, Config{})
	if err := db.OnInstall("ghost", func(Entry) {}); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
}

func TestTriggerNotFiredOnSkip(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	db.DefineView("x", Low)
	var mu sync.Mutex
	count := 0
	db.OnInstall("x", func(Entry) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	now := time.Now()
	db.ApplyUpdate(Update{Object: "x", Value: 2, Generated: now})
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 1 })
	// Older generation: skipped by the worthiness check, no trigger.
	db.ApplyUpdate(Update{Object: "x", Value: 1, Generated: now.Add(-time.Second)})
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesSkipped == 1 })
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("trigger fired %d times, want 1", count)
	}
}

// --- Derived views ---

func TestDerivedViewRecomputes(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	db.DefineView("a", Low)
	db.DefineView("b", Low)
	if err := db.DefineDerived("avg", []string{"a", "b"}, func(vs []float64) float64 {
		return (vs[0] + vs[1]) / 2
	}); err != nil {
		t.Fatal(err)
	}
	db.ApplyUpdate(Update{Object: "a", Value: 10})
	db.ApplyUpdate(Update{Object: "b", Value: 20})
	waitFor(t, time.Second, func() bool {
		e, _ := db.Peek("avg")
		return e.Value == 15
	})
	// A transaction can read the derived view like any other.
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			e, err := tx.Read("avg")
			if err != nil {
				return err
			}
			if e.Value != 15 {
				t.Errorf("derived read = %v", e.Value)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
}

func TestDerivedGenerationIsOldestDep(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	db.DefineView("a", Low)
	db.DefineView("b", Low)
	db.DefineDerived("sum", []string{"a", "b"}, func(vs []float64) float64 {
		return vs[0] + vs[1]
	})
	old := time.Now().Add(-time.Minute)
	newer := time.Now()
	db.ApplyUpdate(Update{Object: "a", Value: 1, Generated: old})
	db.ApplyUpdate(Update{Object: "b", Value: 2, Generated: newer})
	waitFor(t, time.Second, func() bool {
		e, _ := db.Peek("sum")
		return e.Value == 3
	})
	e, _ := db.Peek("sum")
	if !e.Generated.Equal(old) {
		t.Fatalf("derived generation = %v, want the oldest dep %v", e.Generated, old)
	}
}

func TestDerivedStaleWhenDepStale(t *testing.T) {
	clock := newFakeClock()
	db := mustOpen(t, Config{
		Policy: UpdatesFirst,
		MaxAge: time.Second,
		Clock:  clock.Now,
	})
	db.DefineView("a", Low)
	db.DefineDerived("d", []string{"a"}, func(vs []float64) float64 { return vs[0] })
	db.ApplyUpdate(Update{Object: "a", Value: 1, Generated: clock.Now()})
	waitFor(t, time.Second, func() bool {
		e, _ := db.Peek("d")
		return e.Value == 1
	})
	if e, _ := db.Peek("d"); e.Stale {
		t.Fatal("derived view should be fresh")
	}
	clock.Advance(2 * time.Second)
	if e, _ := db.Peek("d"); !e.Stale {
		t.Fatal("derived view should be stale once its dependency ages out")
	}
}

func TestDerivedValidation(t *testing.T) {
	db := mustOpen(t, Config{})
	db.DefineView("a", Low)
	if err := db.DefineDerived("d", nil, func([]float64) float64 { return 0 }); err == nil {
		t.Fatal("empty deps should fail")
	}
	if err := db.DefineDerived("d", []string{"a"}, nil); err == nil {
		t.Fatal("nil compute should fail")
	}
	if err := db.DefineDerived("d", []string{"ghost"}, func([]float64) float64 { return 0 }); !errors.Is(err, ErrUnknownDependency) {
		t.Fatalf("unknown dep: %v", err)
	}
	if err := db.DefineDerived("a", []string{"a"}, func([]float64) float64 { return 0 }); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := db.DefineDerived("d", []string{"a"}, func(vs []float64) float64 { return vs[0] }); err != nil {
		t.Fatal(err)
	}
	// Chained derivation is rejected.
	if err := db.DefineDerived("dd", []string{"d"}, func(vs []float64) float64 { return vs[0] }); err == nil {
		t.Fatal("derived-on-derived should fail")
	}
	// External updates to derived views are rejected.
	if err := db.ApplyUpdate(Update{Object: "d", Value: 1}); !errors.Is(err, ErrDerivedUpdate) {
		t.Fatalf("update to derived: %v", err)
	}
}

// --- Historical views ---

func TestReadAsOf(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst, HistoryDepth: 8})
	db.DefineView("x", Low)
	base := time.Now()
	for i := 1; i <= 3; i++ {
		db.ApplyUpdate(Update{
			Object:    "x",
			Value:     float64(i * 10),
			Generated: base.Add(time.Duration(i) * time.Second),
		})
	}
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 3 })

	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			// As of t=2.5s: the second version.
			e, err := tx.ReadAsOf("x", base.Add(2500*time.Millisecond))
			if err != nil {
				return err
			}
			if e.Value != 20 {
				t.Errorf("as-of read = %v, want 20", e.Value)
			}
			// As of well after everything: the newest version.
			e, err = tx.ReadAsOf("x", base.Add(time.Hour))
			if err != nil {
				return err
			}
			if e.Value != 30 {
				t.Errorf("latest as-of = %v, want 30", e.Value)
			}
			// Before the first version: no history.
			if _, err := tx.ReadAsOf("x", base); !errors.Is(err, ErrNoHistory) {
				t.Errorf("too-old as-of: %v", err)
			}
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
}

func TestHistoryDepthBounded(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst, HistoryDepth: 3})
	db.DefineView("x", Low)
	base := time.Now()
	for i := 1; i <= 10; i++ {
		db.ApplyUpdate(Update{Object: "x", Value: float64(i), Generated: base.Add(time.Duration(i) * time.Millisecond)})
	}
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 10 })
	hist, err := db.History("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history length = %d, want 3", len(hist))
	}
	if hist[0].Value != 8 || hist[2].Value != 10 {
		t.Fatalf("history = %+v, want the newest three", hist)
	}
}

func TestHistoryDisabled(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	db.DefineView("x", Low)
	if _, err := db.HistoryAt("x", time.Now()); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.HistoryAt("ghost", time.Now()); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
}

// --- Partial updates (record views) ---

func TestPartialUpdateMergesFields(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	db.DefineView("quote", Low)
	base := time.Now()
	// Complete update establishes the record.
	db.ApplyUpdate(Update{
		Object:    "quote",
		Value:     100,
		Fields:    map[string]float64{"bid": 99.5, "ask": 100.5, "volume": 1000},
		Generated: base,
	})
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 1 })
	// Partial update changes only the bid.
	db.ApplyUpdate(Update{
		Object:    "quote",
		Fields:    map[string]float64{"bid": 99.75},
		Partial:   true,
		Generated: base.Add(time.Millisecond),
	})
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 2 })
	e, _ := db.Peek("quote")
	if e.Value != 100 {
		t.Fatalf("partial update clobbered the scalar value: %v", e.Value)
	}
	if e.Fields["bid"] != 99.75 || e.Fields["ask"] != 100.5 || e.Fields["volume"] != 1000 {
		t.Fatalf("fields after partial = %v", e.Fields)
	}
}

func TestCompleteUpdateReplacesFields(t *testing.T) {
	db := mustOpen(t, Config{Policy: UpdatesFirst})
	db.DefineView("quote", Low)
	base := time.Now()
	db.ApplyUpdate(Update{
		Object: "quote", Value: 1,
		Fields:    map[string]float64{"a": 1, "b": 2},
		Generated: base,
	})
	db.ApplyUpdate(Update{
		Object: "quote", Value: 2,
		Fields:    map[string]float64{"c": 3},
		Generated: base.Add(time.Millisecond),
	})
	waitFor(t, time.Second, func() bool { return db.Stats().UpdatesInstalled == 2 })
	e, _ := db.Peek("quote")
	if e.Value != 2 || len(e.Fields) != 1 || e.Fields["c"] != 3 {
		t.Fatalf("complete update should replace the record: %+v", e)
	}
}

// --- WAL and recovery ---

func walConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{Policy: TransactionsFirst, WALPath: filepath.Join(dir, "strip.wal")}
}

func setKey(t *testing.T, db *DB, key string, v float64) {
	t.Helper()
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			tx.Set(key, v)
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("set %s failed: %+v", key, res)
	}
}

func getKey(t *testing.T, db *DB, key string) (float64, bool) {
	t.Helper()
	var v float64
	var ok bool
	res := db.Exec(TxnSpec{
		Deadline: time.Now().Add(time.Second),
		Func: func(tx *Tx) error {
			v, ok = tx.Get(key)
			return nil
		},
	})
	if !res.Committed() {
		t.Fatalf("get %s failed: %+v", key, res)
	}
	return v, ok
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(t, dir)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setKey(t, db, "balance", 1234.5)
	setKey(t, db, "weird key \"quoted\"\n", -1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, ok := getKey(t, db2, "balance"); !ok || v != 1234.5 {
		t.Fatalf("recovered balance = %v %v", v, ok)
	}
	if v, ok := getKey(t, db2, "weird key \"quoted\"\n"); !ok || v != -1 {
		t.Fatalf("recovered quoted key = %v %v", v, ok)
	}
}

func TestWALCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(t, dir)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setKey(t, db, "a", 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint rotated to a fresh active segment: only the
	// generation header remains, and the sealed predecessor is pruned.
	data, err := os.ReadFile(cfg.WALPath)
	if err != nil || !bytes.Equal(data, segmentFile(2)) {
		t.Fatalf("WAL after checkpoint: %x err=%v, want the header of generation 2 alone", data, err)
	}
	if _, err := os.Stat(cfg.WALPath + ".g00000001"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("sealed segment not pruned after checkpoint: %v", err)
	}
	setKey(t, db, "b", 2) // lands in the fresh WAL
	db.Close()

	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, ok := getKey(t, db2, "a"); !ok || v != 1 {
		t.Fatalf("snapshot value lost: %v %v", v, ok)
	}
	if v, ok := getKey(t, db2, "b"); !ok || v != 2 {
		t.Fatalf("post-checkpoint value lost: %v %v", v, ok)
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(t, dir)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setKey(t, db, "good", 1)
	db.Close()
	// Simulate a crash mid-append: a batch record short of its last
	// byte.
	f, err := os.OpenFile(cfg.WALPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := frameRecord(nil, batchPayload(2, kv("torn", 99)))
	f.Write(torn[:len(torn)-1])
	f.Close()

	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, ok := getKey(t, db2, "good"); !ok || v != 1 {
		t.Fatalf("committed value lost: %v %v", v, ok)
	}
	if _, ok := getKey(t, db2, "torn"); ok {
		t.Fatal("uncommitted tail applied at recovery")
	}
}

func TestCheckpointWithoutWAL(t *testing.T) {
	db := mustOpen(t, Config{})
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint without WAL should be a no-op: %v", err)
	}
}

func TestWALFreshDatabaseEmpty(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(walConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, ok := getKey(t, db, "anything"); ok {
		t.Fatal("fresh database should be empty")
	}
}
