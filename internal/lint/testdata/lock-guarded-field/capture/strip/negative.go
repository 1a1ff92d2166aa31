// Negative fixture: goroutine launches lock-guarded-field must
// NOT flag — literals that take the lock themselves, literals that
// receive copies as parameters, and literals touching unguarded
// state.
package strip

import "sync"

type Queue struct {
	mu    sync.Mutex
	items []int

	hits int // separate group: deliberately unguarded counter
	done chan struct{}
}

// LocksInside takes the mutex inside the literal.
func (q *Queue) LocksInside(v int) {
	go func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		q.items = append(q.items, v)
	}()
}

// PassesCopy hands the goroutine a value parameter, not the field.
func (q *Queue) PassesCopy() {
	q.mu.Lock()
	snapshot := len(q.items)
	q.mu.Unlock()
	go func(n int) {
		_ = n
	}(snapshot)
}

// TouchesUnguarded only uses state outside any lock's zone.
func (q *Queue) TouchesUnguarded() {
	go func() {
		q.hits++
	}()
}
