package strip

import (
	"hash/maphash"
	"sync/atomic"

	"repro/internal/model"
)

// The definitions table is the registry and the view catalog in one
// structure. Definitions are append-only — a view is never renamed,
// redefined or removed — so the table is too: view id i is the i-th
// definition, its name and its packed class/derived byte are written
// once and never again, and an open-addressed index over the names
// lets a reader that holds no lock (ApplyUpdate, ApplyReplicated,
// Tx.Read) resolve a name while definitions are being added.
//
// Entries live in pages of pageLen views, so a definition never copies
// the names or records before it: a page is allocated when the last one
// fills, and growing the index copies only page pointers and rehashes
// the names. A page also holds its views' catalog records, which db.mu
// guards like the rest of the catalog; code under db.mu reaches pages
// through db.pages.
//
// Guarantees (DESIGN §4, "the registry is an append-only definitions
// table"): a view whose definition has returned is in every lookup
// started afterwards, and a name a lookup does not find was not defined
// when the lookup loaded the table — a miss is definitive without
// taking db.mu. Both follow from the order of writes in addDefLocked,
// all made under db.mu: the page entry first, then the index slot (an
// atomic store), and a grown table is published before its first new
// slot is stored.

const (
	pageBits = 7
	pageLen  = 1 << pageBits // views per page
	pageMask = pageLen - 1
)

// defPage holds pageLen consecutive views: their definitions, written
// once under db.mu before the index slot that refers to them is stored
// and read without a lock afterwards, and their catalog records,
// guarded by db.mu.
type defPage struct {
	names [pageLen]string
	meta  [pageLen]uint8
	views [pageLen]view
}

// A meta byte packs a view's importance class (bit 0; checkImportance
// keeps it to Low or High) and its derived flag.
const (
	metaClass   = 1 << 0
	metaDerived = 1 << 1
)

// defTable is one generation of the table, published through
// DB.defs. index holds id+1 of the view whose name hashes to the slot
// (linear probing, 0 when empty) at a load of at most 3/4; pages has
// room for every id the index can hold. Growth builds a new table over
// the same pages, so a reader still holding the old one keeps a
// consistent view of the definitions made before it.
type defTable struct {
	pages []*defPage
	index []atomic.Int32
}

// minIndex is the index length of an empty table.
const minIndex = 16

func newDefTable(indexLen int) *defTable {
	return &defTable{
		pages: make([]*defPage, (indexLen*3/4+pageMask)>>pageBits),
		index: make([]atomic.Int32, indexLen),
	}
}

// capacity is the number of views the table holds before it must grow.
func (t *defTable) capacity() int { return len(t.index) * 3 / 4 }

// find returns the id of the view named name, whose hash is h, and
// the page that holds it; nil when no view has the name.
func (t *defTable) find(name string, h uint64) (int32, *defPage) {
	mask := uint64(len(t.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.index[i].Load()
		if s == 0 {
			return 0, nil
		}
		id := s - 1
		if p := t.pages[id>>pageBits]; p.names[id&pageMask] == name {
			return id, p
		}
	}
}

// link stores id in the first free slot of name's probe sequence.
func (t *defTable) link(id int32, h uint64) {
	mask := uint64(len(t.index) - 1)
	i := h & mask
	for t.index[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.index[i].Store(id + 1)
}

// grown returns a table with twice the index, holding the n views
// defined so far.
func (t *defTable) grown(n int, seed maphash.Seed) *defTable {
	g := newDefTable(2 * len(t.index))
	copy(g.pages, t.pages)
	for id := range int32(n) {
		g.link(id, maphash.String(seed, g.pages[id>>pageBits].names[id&pageMask]))
	}
	return g
}

// viewRef is what a view name resolves to: all that an offer or a read
// needs to know about its target.
type viewRef struct {
	id      model.ObjectID
	class   Importance
	derived bool
}

// lookup resolves a view name without taking db.mu.
func (db *DB) lookup(name string) (viewRef, bool) {
	id, p := db.defs.Load().find(name, maphash.String(db.seed, name))
	if p == nil {
		return viewRef{}, false
	}
	m := p.meta[id&pageMask]
	return viewRef{id: model.ObjectID(id), class: Importance(m & metaClass), derived: m&metaDerived != 0}, true
}

// addDefLocked appends a definition to the table. Callers hold db.mu
// for writing and have checked the name is unused.
func (db *DB) addDefLocked(name string, importance Importance, derived bool) model.ObjectID {
	t := db.defs.Load()
	id := int32(db.nviews)
	if db.nviews == t.capacity() {
		t = t.grown(db.nviews, db.seed)
		db.defs.Store(t)
	}
	if id&pageMask == 0 {
		db.pages = append(db.pages, new(defPage))
		t.pages[id>>pageBits] = db.pages[id>>pageBits]
	}
	p := db.pages[id>>pageBits]
	m := uint8(importance)
	if derived {
		m |= metaDerived
	}
	p.names[id&pageMask] = name
	p.meta[id&pageMask] = m
	p.views[id&pageMask] = view{gen: noGen, class: int8(importance), derived: derived}
	t.link(id, maphash.String(db.seed, name))
	db.nviews++
	return model.ObjectID(id)
}

// viewLocked returns a view's catalog record. Callers hold db.mu (read or
// write; write to change the record).
func (db *DB) viewLocked(id model.ObjectID) *view {
	return &db.pages[id>>pageBits].views[id&pageMask]
}

// nameLocked returns a view's name. Callers hold db.mu.
func (db *DB) nameLocked(id model.ObjectID) string {
	return db.pages[id>>pageBits].names[id&pageMask]
}
