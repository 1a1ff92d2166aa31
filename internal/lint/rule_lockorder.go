package lint

import (
	"fmt"
	"strings"
)

// LockOrder reports cycles in the module-wide lock-acquisition-order
// graph as potential deadlocks. The graph gains an edge A -> B
// whenever some function acquires mutex B while holding mutex A —
// either directly in one scope, or because a call made under A leads
// (transitively, interface dispatch included) to a function that
// acquires B. Two code paths that take the same pair of mutexes in
// opposite orders therefore form a cycle, even when the two
// acquisitions live in different functions, files or packages — the
// interprocedural case the per-scope lock rules cannot see. Each cycle
// is reported once, anchored at its first in-scope witness, with one
// witness chain per edge so both (all) conflicting paths are shown.
var LockOrder = &Analyzer{
	Name: "lock-order",
	Doc: "build the global lock-acquisition-order graph over the callgraph " +
		"and report any cycle (two paths taking the same mutexes in opposite " +
		"orders) as a potential deadlock with full witness chains",
	needsFacts: true,
	Run: func(pass *Pass) {
		scope := pass.Opts.LockOrder
		for _, cyc := range pass.Facts.lockCycles {
			// Anchor each cycle at its first edge witnessed by an
			// in-scope function, and report it only from that function's
			// package so a multi-package cycle appears exactly once.
			rep := -1
			for i, e := range cyc.edges {
				if e.fn.Pkg() != nil && scope.Match(e.fn.Pkg().Path()) {
					rep = i
					break
				}
			}
			if rep < 0 || cyc.edges[rep].fn.Pkg() != pass.Pkg {
				continue
			}
			names := make([]string, 0, len(cyc.keys)+1)
			for _, k := range cyc.keys {
				names = append(names, pass.Facts.lockGraph.names[k])
			}
			names = append(names, names[0])
			var notes []string
			for _, e := range cyc.edges {
				notes = append(notes, lockEdgeNotes(pass.Facts, e)...)
			}
			pass.ReportfNotes(cyc.edges[rep].pos, notes,
				"lock ordering cycle %s — potential deadlock across these call paths",
				strings.Join(names, " -> "))
		}
	},
}

// lockEdgeNotes renders one order-graph edge's witness: the direct
// acquisition, or the call plus the callee's transitive chain down to
// the lock.
func lockEdgeNotes(f *Facts, e *lockEdge) []string {
	pos := f.fset.Position(e.pos).String()
	from, to := f.lockGraph.names[e.from], f.lockGraph.names[e.to]
	if e.via == nil {
		return []string{fmt.Sprintf("%s acquires %s at %s while holding %s",
			funcDisplayName(e.fn), to, pos, from)}
	}
	notes := []string{fmt.Sprintf("%s calls %s at %s while holding %s",
		funcDisplayName(e.fn), funcDisplayName(e.via), pos, from)}
	return append(notes, f.acquireNotes(e.via, e.to)...)
}
