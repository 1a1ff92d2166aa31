package strip

import "time"

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
	if db.cfg.HistoryDepth <= 0 {
		return Entry{}, ErrNoHistory
	}
	hist := db.entries[id].history
	// History is generation-ordered (installs are monotone by the
	// worthiness check): scan from the newest retained version.
	for i := len(hist) - 1; i >= 0; i-- {
		if !hist[i].generated.After(t) {
			return Entry{
				Object:    name,
				Value:     hist[i].value,
				Generated: hist[i].generated,
			}, nil
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
	hist := db.entries[id].history
	out := make([]Entry, len(hist))
	for i, h := range hist {
		out[i] = Entry{Object: name, Value: h.value, Generated: h.generated}
	}
	return out, nil
}
