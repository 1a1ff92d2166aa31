package strip

import (
	"errors"
	"fmt"

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
// the scheduler goroutine with the freshly installed entry: it must be
// fast and must not call Exec. Triggers are the STRIP rule mechanism
// in miniature; §7 names update-triggered rules as the follow-on
// problem to update scheduling.
func (db *DB) OnInstall(object string, fn func(Entry)) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if object == "" {
		db.globalTriggers = append(db.globalTriggers, fn)
		return nil
	}
	ref, ok := db.lookup(object)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, object)
	}
	id := ref.id
	if db.triggers == nil {
		db.triggers = make(map[model.ObjectID][]func(Entry))
	}
	db.triggers[id] = append(db.triggers[id], fn)
	db.viewLocked(id).hooked = true
	return nil
}

// DefineDerived registers a computed view: whenever any dependency is
// installed, compute runs over the dependencies' current values (in
// deps order) and the result becomes the derived view's value. The
// derived view's generation time is the *oldest* dependency
// generation, so a maximum-age staleness bound propagates
// conservatively; under the unapplied-update criterion the derived
// view is stale while any dependency is.
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
	if db.derivedByDep == nil {
		db.derivedByDep = make(map[model.ObjectID][]*derivedDef)
		db.derivedByID = make(map[model.ObjectID]*derivedDef)
	}
	for _, dep := range depIDs {
		db.derivedByDep[dep] = append(db.derivedByDep[dep], def)
		db.viewLocked(dep).hooked = true
	}
	db.derivedByID[id] = def
	return nil
}

// fireTriggers runs install triggers, watcher delivery and derived-view
// recomputation for an installed object. Called on the scheduler
// goroutine, outside db.mu, and only for an install that found
// something registered (see hookedLocked).
func (db *DB) fireTriggers(id model.ObjectID) {
	db.mu.RLock()
	v := db.viewLocked(id)
	e := Entry{
		Object:    db.nameLocked(id),
		Value:     v.value,
		Generated: genTime(v.gen),
		Fields:    copyFields(db.fields[id]),
	}
	// Copy the trigger lists so they run outside the lock; the copy is
	// sized exactly and skipped when only watchers or derived views are
	// registered.
	var fns []func(Entry)
	if n := len(db.globalTriggers) + len(db.triggers[id]); n > 0 {
		fns = make([]func(Entry), 0, n)
		fns = append(fns, db.globalTriggers...)
		fns = append(fns, db.triggers[id]...)
	}
	derived := append([]*derivedDef(nil), db.derivedByDep[id]...)
	db.mu.RUnlock()

	for _, fn := range fns {
		fn(e)
	}
	db.notifyWatchers(id, e)
	for _, def := range derived {
		db.recomputeDerived(def)
	}
}

// recomputeDerived evaluates one derived view from its dependencies.
func (db *DB) recomputeDerived(def *derivedDef) {
	db.mu.Lock()
	// def.compute is user code that may retain the slice, so each
	// recompute hands it a fresh one.
	values := make([]float64, len(def.deps))
	oldest := db.viewLocked(def.deps[0]).gen
	for i, dep := range def.deps {
		v := db.viewLocked(dep)
		values[i] = v.value
		oldest = min(oldest, v.gen)
	}
	db.mu.Unlock()

	// Compute outside the lock: user code.
	result := def.compute(values)

	db.mu.Lock()
	v := db.viewLocked(def.id)
	v.value = result
	v.gen = oldest
	db.recordHistoryLocked(def.id)
	db.mu.Unlock()

	// Derived installs fire plain triggers too (but never recurse
	// into further derivation: dependencies cannot be derived).
	db.mu.RLock()
	entry := Entry{Object: db.nameLocked(def.id), Value: result, Generated: genTime(oldest)}
	var fns []func(Entry)
	if n := len(db.globalTriggers) + len(db.triggers[def.id]); n > 0 {
		fns = make([]func(Entry), 0, n)
		fns = append(fns, db.globalTriggers...)
		fns = append(fns, db.triggers[def.id]...)
	}
	db.mu.RUnlock()
	for _, fn := range fns {
		fn(entry)
	}
	db.notifyWatchers(def.id, entry)
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
