package strip

import "sync"

// Watch subscribes to installs of one view object ("" for all views)
// and returns a channel of installed entries plus a cancel function.
// The channel has the given buffer; when a subscriber falls behind,
// newer entries overwrite the channel's backlog head (latest-wins, so
// slow consumers see fresh data rather than an ever-growing lag),
// mirroring how the update queue prefers new generations. Delivery is
// an install hook (see OnInstall), so it runs on the scheduler
// goroutine in the hooks' order.
//
// Cancel is idempotent. The channel is closed on cancel and on
// database Close.
func (db *DB) Watch(object string, buffer int) (<-chan Entry, func(), error) {
	if buffer <= 0 {
		buffer = 16
	}
	ch := make(chan Entry, buffer)
	w := &watcher{ch: ch}
	db.mu.Lock()
	err := db.hookLocked(object, w.deliver)
	if err == nil {
		db.watchers = append(db.watchers, w)
	}
	db.mu.Unlock()
	if err != nil {
		close(ch)
		return ch, func() {}, err
	}
	return ch, w.close, nil
}

// watcher is one Watch subscription. Its lock orders delivery, which
// runs on the scheduler goroutine, against cancel and database Close.
type watcher struct {
	mu     sync.Mutex
	ch     chan Entry
	closed bool
}

// close closes the channel exactly once.
func (w *watcher) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
}

// deliver pushes an entry latest-wins; it is the subscription's hook.
func (w *watcher) deliver(e Entry) {
	w.mu.Lock()
	defer w.mu.Unlock()
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
