package uqueue

import (
	"math/rand"
	"slices"
	"testing"
)

type rankedEntry struct{ Rank }

// TestReadyQueueOrderUnderRemoval pushes entries with few distinct
// densities (zero estimates among them), removes a random third from
// anywhere in the heap, and pops the rest: the pops come in density
// order, equal densities in ID order, and nothing removed comes back.
func TestReadyQueueOrderUnderRemoval(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		q := NewReadyQueue[*rankedEntry]()
		var all []*rankedEntry
		for id := uint64(1); id <= uint64(1+r.Intn(200)); id++ {
			e := &rankedEntry{Rank{Density: Density(float64(r.Intn(3)), float64(r.Intn(3))), ID: id}}
			all = append(all, e)
			q.Push(e)
		}
		removed := map[*rankedEntry]bool{}
		for _, e := range all {
			if r.Intn(3) == 0 {
				q.Remove(e)
				removed[e] = true
			}
		}
		var want []*rankedEntry
		for _, e := range all {
			if !removed[e] {
				want = append(want, e)
			}
		}
		slices.SortFunc(want, func(a, b *rankedEntry) int {
			switch {
			case a.Density > b.Density, a.Density == b.Density && a.ID < b.ID:
				return -1
			default:
				return 1
			}
		})
		if q.Len() != len(want) {
			t.Fatalf("round %d: Len %d after removals, want %d", round, q.Len(), len(want))
		}
		for i, w := range want {
			if got := q.Pop(); got != w {
				t.Fatalf("round %d: pop %d is ID %d (density %g), want ID %d (density %g)",
					round, i, got.ID, got.Density, w.ID, w.Density)
			}
		}
	}
}
