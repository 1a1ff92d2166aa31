package strip

import "time"

// historical is one archived version of a view value.
type historical struct {
	value float64
	gen   int64 // Unix nanoseconds, as view.gen
}

// historyRing holds a view's newest versions, at most
// Config.HistoryDepth of them, in generation order: installs are
// monotone by the worthiness check, and ResetToSnapshot, which may
// install an older generation, starts the view's ring afresh. (A
// derived view's generation, its oldest dependency's, can still step
// back when a reset moves a dependency back; ReadAsOf then answers
// with the newest such version recorded.)
type historyRing struct {
	vers  []historical
	start int // index of the oldest version once vers is full
}

// add archives a version, overwriting the oldest once depth are held.
func (r *historyRing) add(h historical, depth int) {
	if len(r.vers) < depth {
		r.vers = append(r.vers, h)
		return
	}
	r.vers[r.start] = h
	r.start = (r.start + 1) % len(r.vers)
}

// len returns the number of retained versions; a nil ring has none.
func (r *historyRing) len() int {
	if r == nil {
		return 0
	}
	return len(r.vers)
}

// at returns the i-th oldest retained version.
func (r *historyRing) at(i int) historical {
	return r.vers[(r.start+i)%len(r.vers)]
}

// ReadAsOf returns the newest version of the view object generated at
// or before t — the paper's "historical views" future-work item. It
// requires Config.HistoryDepth > 0; values older than the retained
// depth are gone, and ErrNoHistory is returned when no retained
// version is old enough. ReadAsOf is a plain historical lookup: it
// does not trigger update installation and never counts as a stale
// read (the caller asked for an old value on purpose).
func (tx *Tx) ReadAsOf(name string, t time.Time) (Entry, error) {
	if err := tx.checkState(); err != nil {
		return Entry{}, err
	}
	return tx.db.readAsOf(name, t)
}

// HistoryAt is the non-transactional form of Tx.ReadAsOf, for
// monitoring.
func (db *DB) HistoryAt(name string, t time.Time) (Entry, error) {
	return db.readAsOf(name, t)
}

func (db *DB) readAsOf(name string, t time.Time) (Entry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	id, ok := db.idLocked(name)
	if !ok {
		return Entry{}, ErrUnknownObject
	}
	if db.history == nil {
		return Entry{}, ErrNoHistory
	}
	r := db.history[id]
	at := genOf(t)
	// The ring is generation-ordered: scan from the newest version.
	for i := r.len() - 1; i >= 0; i-- {
		if h := r.at(i); h.gen <= at {
			return Entry{Object: name, Value: h.value, Generated: genTime(h.gen)}, nil
		}
	}
	return Entry{}, ErrNoHistory
}

// History returns the retained versions of a view object, oldest
// first. The slice is a copy.
func (db *DB) History(name string) ([]Entry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	id, ok := db.idLocked(name)
	if !ok {
		return nil, ErrUnknownObject
	}
	r := db.history[id]
	out := make([]Entry, r.len())
	for i := range out {
		h := r.at(i)
		out[i] = Entry{Object: name, Value: h.value, Generated: genTime(h.gen)}
	}
	return out, nil
}
