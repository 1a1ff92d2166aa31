package strip

import "repro/internal/model"

// Watch subscribes to installs of one view object ("" for all views)
// and returns a channel of installed entries plus a cancel function.
// The channel has the given buffer; when a subscriber falls behind,
// newer entries overwrite the channel's backlog head (latest-wins, so
// slow consumers see fresh data rather than an ever-growing lag),
// mirroring how the update queue prefers new generations.
//
// Cancel is idempotent. The channel is closed on cancel and on
// database Close.
func (db *DB) Watch(object string, buffer int) (<-chan Entry, func(), error) {
	if buffer <= 0 {
		buffer = 16
	}
	ch := make(chan Entry, buffer)
	w := &watcher{ch: ch}

	if err := db.addWatcher(object, w); err != nil {
		close(ch)
		return ch, func() {}, err
	}

	cancel := func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		w.closeOnce()
	}
	return ch, cancel, nil
}

// addWatcher registers the subscription under the write lock.
func (db *DB) addWatcher(object string, w *watcher) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if object == "" {
		db.watchers = append(db.watchers, w)
		return nil
	}
	ref, ok := db.lookup(object)
	if !ok {
		return ErrUnknownObject
	}
	id := ref.id
	if db.watchersByID == nil {
		db.watchersByID = make(map[model.ObjectID][]*watcher)
	}
	db.watchersByID[id] = append(db.watchersByID[id], w)
	db.viewLocked(id).hooked = true
	return nil
}

// watcher is one Watch subscription.
type watcher struct {
	ch     chan Entry
	closed bool
}

// closeOnce closes the channel exactly once. Callers hold db.mu.
func (w *watcher) closeOnce() {
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
}

// deliver pushes an entry latest-wins. Callers hold db.mu.
func (w *watcher) deliver(e Entry) {
	if w.closed {
		return
	}
	for {
		select {
		case w.ch <- e:
			return
		default:
			// Full: drop the oldest backlog entry and retry.
			select {
			case <-w.ch:
			default:
			}
		}
	}
}

// notifyWatchers delivers an installed entry to the object's and the
// global subscribers. Runs on the scheduler goroutine.
func (db *DB) notifyWatchers(id model.ObjectID, e Entry) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, w := range db.watchers {
		w.deliver(e)
	}
	for _, w := range db.watchersByID[id] {
		w.deliver(e)
	}
}

// closeWatchers shuts every subscription down (database Close).
func (db *DB) closeWatchers() {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, w := range db.watchers {
		w.closeOnce()
	}
	for _, ws := range db.watchersByID {
		for _, w := range ws {
			w.closeOnce()
		}
	}
}
