package strip

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Errors for triggers, derived views and history.
var (
	// ErrDerivedUpdate reports an external update applied to a
	// derived view, which is computed, never fed.
	ErrDerivedUpdate = errors.New("strip: derived views cannot be updated externally")
	// ErrNoHistory reports a ReadAsOf on a database without history
	// (Config.HistoryDepth == 0) or with no value old enough.
	ErrNoHistory = errors.New("strip: no historical value available")
	// ErrUnknownDependency reports a derived view referring to an
	// undefined view object.
	ErrUnknownDependency = errors.New("strip: unknown dependency")
)

// derivedDef describes one computed view.
type derivedDef struct {
	id      model.ObjectID
	deps    []model.ObjectID
	compute func(values []float64) float64
}

// OnInstall registers fn to run after every install of the named view
// object (object == "" registers for all views). The function runs on
// the scheduler goroutine with the freshly installed entry, outside
// db.mu: it must be fast and must not call Exec. Triggers are the STRIP
// rule mechanism in miniature; §7 names update-triggered rules as the
// follow-on problem to update scheduling.
//
// Triggers, Watch subscriptions and derived views are all install
// hooks, and an install fires its hooks in registration order, those
// registered for all views first. A derived view's recompute is a hook
// on each of its dependencies; it fires the derived view's own hooks,
// which see the recomputed value, before the dependency's later hooks
// run.
func (db *DB) OnInstall(object string, fn func(Entry)) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.hookLocked(object, fn)
}

// hookLocked appends fn to the named object's hook list, or to the
// global one for object "". Callers hold db.mu for writing.
func (db *DB) hookLocked(object string, fn func(Entry)) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if object == "" {
		db.globalHooks = append(db.globalHooks, fn)
		return nil
	}
	ref, ok := db.lookup(object)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, object)
	}
	db.addHookLocked(ref.id, fn)
	return nil
}

// addHookLocked appends fn to the object's hook list. Callers hold
// db.mu for writing.
func (db *DB) addHookLocked(id model.ObjectID, fn func(Entry)) {
	if db.hooks == nil {
		db.hooks = make(map[model.ObjectID][]func(Entry))
	}
	db.hooks[id] = append(db.hooks[id], fn)
	db.viewLocked(id).hooked = true
}

// DefineDerived registers a computed view: whenever any dependency is
// installed, compute runs over the dependencies' current values (in
// deps order) and the result becomes the derived view's value. The
// derived view's generation time is the *oldest* dependency
// generation, so a maximum-age staleness bound propagates
// conservatively; under the unapplied-update criterion the derived
// view is stale while any dependency is. A dependency named twice
// passes its value twice but recomputes the view once per install.
//
// Derived views are what §7 describes as the case On Demand cannot
// handle directly ("an object X representing the average price of
// stocks in a portfolio"): the update queue never holds updates for
// the derived object itself, but refreshing a dependency — by any
// policy, including OD's in-line refresh — recomputes it.
func (db *DB) DefineDerived(name string, deps []string, compute func(values []float64) float64) error {
	if compute == nil {
		return errors.New("strip: DefineDerived requires a compute function")
	}
	if len(deps) == 0 {
		return errors.New("strip: DefineDerived requires at least one dependency")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if _, ok := db.lookup(name); ok {
		return ErrDuplicateObject
	}
	depIDs := make([]model.ObjectID, len(deps))
	for i, dep := range deps {
		ref, ok := db.lookup(dep)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownDependency, dep)
		}
		if ref.derived {
			// Chained derivation would need topological recompute
			// ordering; keep the dependency graph one level deep.
			return fmt.Errorf("strip: dependency %q is itself derived", dep)
		}
		depIDs[i] = ref.id
	}
	id := db.addDefLocked(name, Low, true)
	def := &derivedDef{id: id, deps: depIDs, compute: compute}
	recompute := func(Entry) { db.recompute(def) }
	for i, dep := range depIDs {
		if !slices.Contains(depIDs[:i], dep) {
			db.addHookLocked(dep, recompute)
		}
	}
	if db.derivedByID == nil {
		db.derivedByID = make(map[model.ObjectID]*derivedDef)
	}
	db.derivedByID[id] = def
	return nil
}

// firing is one install's entry and hooks, captured in the critical
// section that installed it and fired after it (see captureLocked).
type firing struct {
	entry       Entry
	global, own []func(Entry)
}

// captureLocked captures the object's entry and its hooks: the global
// list and its own. The hook lists are append-only — nothing
// unregisters, and no element is ever overwritten — so a captured slice
// header keeps naming the same functions after db.mu is released: a
// later registration appends beyond its length or into a new array.
// That is what lets fire run the hooks with no lock and no copy.
// Callers hold db.mu for writing.
func (db *DB) captureLocked(id model.ObjectID) firing {
	v := db.viewLocked(id)
	f := firing{
		entry: Entry{
			Object:    db.nameLocked(id),
			Value:     v.value,
			Generated: genTime(v.gen),
			Fields:    copyFields(db.fields[id]),
		},
		global: db.globalHooks,
	}
	if v.hooked {
		f.own = db.hooks[id]
	}
	return f
}

// fire runs captured hooks, global ones first, each list in
// registration order. It runs on the scheduler goroutine, outside db.mu.
func (f *firing) fire() {
	for _, fn := range f.global {
		fn(f.entry)
	}
	for _, fn := range f.own {
		fn(f.entry)
	}
}

// recompute evaluates one derived view from its dependencies and fires
// the derived view's own hooks (never a further derivation:
// dependencies cannot be derived).
func (db *DB) recompute(def *derivedDef) {
	// def.compute is user code that may retain the slice, so each
	// recompute hands it a fresh one.
	values := make([]float64, len(def.deps))
	db.mu.RLock()
	oldest := db.viewLocked(def.deps[0]).gen
	for i, dep := range def.deps {
		v := db.viewLocked(dep)
		values[i] = v.value
		oldest = min(oldest, v.gen)
	}
	db.mu.RUnlock()

	// Compute outside the lock: user code.
	result := def.compute(values)

	db.mu.Lock()
	v := db.viewLocked(def.id)
	v.value = result
	v.gen = oldest
	db.recordHistoryLocked(def.id)
	f := db.captureLocked(def.id)
	db.mu.Unlock()
	f.fire()
}

func copyFields(m map[string]float64) map[string]float64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
