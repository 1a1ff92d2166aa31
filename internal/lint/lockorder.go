package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file builds the module-wide facts behind the lock-order rule: a
// per-mutex identity scheme, the global lock-acquisition-order graph,
// its cycle detection and the transitive "acquires" closure over the
// call graph.
//
// Mutex identity is per declaration site, not per instance: every
// strip.DB shares the identity "strip.DB.mu" for its mu field. That is
// the standard lock-annotation over-approximation — two *different* DB
// instances locked in opposite orders by different goroutines would be
// reported as a cycle even though a single-instance program cannot
// deadlock on them, and conversely a deadlock that depends on two
// instances of the same struct is modelled by the self-edge the
// analysis does report. Mutexes that cannot be named this way — local
// variables, mutexes reached through function calls or indexing,
// embedded sync.Mutex promoted methods — resolve to nothing and are
// invisible to the order graph; they are listed in DESIGN.md as the
// rule family's known false-negative classes.

// lockKey uniquely identifies a mutex declaration across the module:
// "pkgpath:Struct.field" for a struct field, "pkgpath:var" for a
// package-level mutex. The display name shown in diagnostics uses the
// package's short name instead of its import path.
type lockKey string

// resolveLockExpr maps the receiver expression of a Lock/Unlock
// call ("db.mu" in db.mu.Lock()) to its module-wide identity and
// display name, or ("", "") when the mutex cannot be attributed to a
// declaration site.
func resolveLockExpr(info *types.Info, e ast.Expr) (lockKey, string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj, ok := useOf(info, e.Sel).(*types.Var)
		if !ok {
			return "", ""
		}
		if obj.IsField() {
			t := info.TypeOf(e.X)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return "", ""
			}
			tn := named.Obj()
			key := lockKey(tn.Pkg().Path() + ":" + tn.Name() + "." + obj.Name())
			return key, tn.Pkg().Name() + "." + tn.Name() + "." + obj.Name()
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return lockKey(obj.Pkg().Path() + ":" + obj.Name()), obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		obj, ok := useOf(info, e).(*types.Var)
		if !ok || obj.Pkg() == nil {
			return "", ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return lockKey(obj.Pkg().Path() + ":" + obj.Name()), obj.Pkg().Name() + "." + obj.Name()
		}
	}
	return "", ""
}

// heldEntry is one attributable mutex held at a program point.
type heldEntry struct {
	path  string
	key   lockKey
	write bool
}

// scopeLocks is the per-scope lock state of the order graph: the
// scope's held intervals plus the identity of each locked path.
type scopeLocks struct {
	spans map[string][]heldSpan
	keys  map[string]lockKey
	names map[lockKey]string
}

// analyzeScopeLocks computes the lock state of one function scope
// (literal bodies excluded, as everywhere in the lock rules).
func analyzeScopeLocks(info *types.Info, body *ast.BlockStmt) (*scopeLocks, []lockEvent) {
	events := collectLockEvents(info, body)
	s := &scopeLocks{
		spans: heldIntervals(events, body.End()),
		keys:  make(map[string]lockKey),
		names: make(map[lockKey]string),
	}
	for _, ev := range events {
		if _, ok := s.keys[ev.path]; ok {
			continue
		}
		key, name := resolveLockExpr(info, ev.muExpr)
		s.keys[ev.path] = key
		if key != "" {
			s.names[key] = name
		}
	}
	return s, events
}

// heldAt returns the attributable mutexes held at pos, sorted by key
// so downstream processing is deterministic.
func (s *scopeLocks) heldAt(pos token.Pos) []heldEntry {
	var out []heldEntry
	for path, spans := range s.spans {
		key := s.keys[path]
		if key == "" {
			continue
		}
		held, write := false, false
		for _, sp := range spans {
			if pos >= sp.from && pos < sp.to {
				held = true
				write = write || sp.write
			}
		}
		if held {
			out = append(out, heldEntry{path: path, key: key, write: write})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].path < out[j].path
	})
	return out
}

// lockEdge is one order-graph edge "from is held while to is
// acquired", with its witness: the function whose body proves it, the
// position of the acquisition (direct) or of the call that leads to it
// (via != nil).
type lockEdge struct {
	from, to lockKey
	fn       *types.Func
	pos      token.Pos
	via      *types.Func // callee whose transitive acquires include to
}

// lockGraph is the global acquisition-order graph.
type lockGraph struct {
	names map[lockKey]string
	edges map[[2]lockKey]*lockEdge // first witness wins
}

func (g *lockGraph) add(e *lockEdge) {
	k := [2]lockKey{e.from, e.to}
	if _, ok := g.edges[k]; !ok {
		g.edges[k] = e
	}
}

// sortedEdges returns the graph's edges ordered by (from, to).
func (g *lockGraph) sortedEdges() []*lockEdge {
	keys := make([][2]lockKey, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]*lockEdge, len(keys))
	for i, k := range keys {
		out[i] = g.edges[k]
	}
	return out
}

// lockCycle is one potential deadlock: a cycle in the order graph,
// keys in cycle order starting from the smallest, edges[i] witnessing
// keys[i] -> keys[(i+1)%len(keys)].
type lockCycle struct {
	keys  []lockKey
	edges []*lockEdge
}

// heldCall is a module-function mention at a program point where
// attributable locks are held; after the acquires closure is computed
// it expands into order-graph edges.
type heldCall struct {
	caller *types.Func
	callee *types.Func
	pos    token.Pos
	held   []heldEntry
}

// buildLockFacts fills the lock-order facts: the transitive acquires
// closure, the order graph and its cycles.
func buildLockFacts(f *Facts, modules []*Package, order []*cgNode, nodes map[*types.Func]*cgNode) {
	g := &lockGraph{names: make(map[lockKey]string), edges: make(map[[2]lockKey]*lockEdge)}
	direct := make(map[*types.Func]map[lockKey]*taintFact)
	directWrite := make(map[*types.Func]map[lockKey]bool)
	var calls []heldCall
	modPaths := make(map[string]bool, len(modules))
	for _, pkg := range modules {
		modPaths[pkg.Path] = true
	}

	for _, n := range order {
		if n.decl == nil {
			continue
		}
		info := n.pkg.Info
		for _, body := range declScopes(n.decl) {
			s, events := analyzeScopeLocks(info, body)
			for k, name := range s.names {
				g.names[k] = name
			}
			for _, ev := range events {
				if (ev.op != "Lock" && ev.op != "RLock") || ev.deferred {
					continue
				}
				key := s.keys[ev.path]
				if key == "" {
					continue
				}
				if direct[n.fn] == nil {
					direct[n.fn] = make(map[lockKey]*taintFact)
					directWrite[n.fn] = make(map[lockKey]bool)
				}
				if direct[n.fn][key] == nil {
					pos := n.pkg.Fset.Position(ev.pos)
					direct[n.fn][key] = &taintFact{source: s.names[key], srcPos: pos, hopPos: pos}
				}
				directWrite[n.fn][key] = directWrite[n.fn][key] || ev.op == "Lock"
				for _, h := range s.heldAt(ev.pos) {
					if h.key == key && !h.write && ev.op == "RLock" {
						continue // nested read locks of one mutex: not an ordering event
					}
					g.add(&lockEdge{from: h.key, to: key, fn: n.fn, pos: ev.pos})
				}
			}
			// Module-function mentions under a held lock expand into
			// transitive edges once the acquires closure is known.
			inspectScope(body, func(nd ast.Node) {
				id, ok := nd.(*ast.Ident)
				if !ok {
					return
				}
				fn, ok := useOf(info, id).(*types.Func)
				if !ok || fn == n.fn || fn.Pkg() == nil || !modPaths[fn.Pkg().Path()] {
					return
				}
				if held := s.heldAt(id.Pos()); len(held) > 0 {
					calls = append(calls, heldCall{caller: n.fn, callee: fn, pos: id.Pos(), held: held})
				}
			})
		}
	}

	f.acquires, f.acquiresWrite = propagateAcquires(direct, directWrite, order, nodes)
	for _, c := range calls {
		acq := f.acquires[c.callee]
		keys := make([]lockKey, 0, len(acq))
		for k := range acq {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			for _, h := range c.held {
				if h.key == k && !h.write && !f.acquiresWrite[c.callee][k] {
					continue // nested shared reads of one RWMutex, as in the direct case
				}
				g.add(&lockEdge{from: h.key, to: k, fn: c.caller, pos: c.pos, via: c.callee})
			}
		}
	}
	f.lockGraph = g
	f.lockCycles = findLockCycles(g)
}

// declScopes yields the analysis scopes of one declaration: the body
// itself plus every nested function literal (each literal is its own
// lock scope, exactly as in the per-scope lock rules).
func declScopes(fd *ast.FuncDecl) []*ast.BlockStmt {
	out := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit.Body)
		}
		return true
	})
	return out
}

// propagateAcquires closes "transitively acquires lock k" backwards
// over the call graph (interface-dispatch edges included), one witness
// chain per (function, lock), plus a separate write-mode closure: a
// function write-acquires k when ANY of its paths to k ends in Lock
// rather than RLock (the witness chain may differ — write-ness is a
// property of the whole path set, not of the chosen witness).
func propagateAcquires(direct map[*types.Func]map[lockKey]*taintFact, directWrite map[*types.Func]map[lockKey]bool, order []*cgNode, nodes map[*types.Func]*cgNode) (map[*types.Func]map[lockKey]*taintFact, map[*types.Func]map[lockKey]bool) {
	callers := reverseEdges(order, true)
	acq := make(map[*types.Func]map[lockKey]*taintFact)
	writes := make(map[*types.Func]map[lockKey]bool)
	keySet := make(map[lockKey]bool)
	for _, n := range order {
		for k, fact := range direct[n.fn] {
			if acq[n.fn] == nil {
				acq[n.fn] = make(map[lockKey]*taintFact)
			}
			acq[n.fn][k] = fact
			keySet[k] = true
		}
	}
	keys := make([]lockKey, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	for _, k := range keys {
		var queue []*types.Func
		for _, n := range order {
			if direct[n.fn] != nil && direct[n.fn][k] != nil {
				queue = append(queue, n.fn)
			}
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			fact := acq[cur][k]
			for _, caller := range callers[cur] {
				cfn := caller.callee // reversed edge: callee field holds the caller
				if acq[cfn] != nil && acq[cfn][k] != nil {
					continue
				}
				if acq[cfn] == nil {
					acq[cfn] = make(map[lockKey]*taintFact)
				}
				n := nodes[cfn]
				hop := fact.srcPos
				if n != nil {
					hop = n.pkg.Fset.Position(caller.pos)
				}
				acq[cfn][k] = &taintFact{source: fact.source, srcPos: fact.srcPos, next: cur, hopPos: hop}
				queue = append(queue, cfn)
			}
		}
		// Write-mode closure for k, seeded from direct Lock() calls.
		queue = queue[:0]
		for _, n := range order {
			if directWrite[n.fn] != nil && directWrite[n.fn][k] {
				queue = append(queue, n.fn)
				if writes[n.fn] == nil {
					writes[n.fn] = make(map[lockKey]bool)
				}
				writes[n.fn][k] = true
			}
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, caller := range callers[cur] {
				cfn := caller.callee
				if writes[cfn] != nil && writes[cfn][k] {
					continue
				}
				if writes[cfn] == nil {
					writes[cfn] = make(map[lockKey]bool)
				}
				writes[cfn][k] = true
				queue = append(queue, cfn)
			}
		}
	}
	return acq, writes
}

// findLockCycles enumerates the cycles of the order graph, one
// representative per distinct lock set, deterministically ordered.
func findLockCycles(g *lockGraph) []lockCycle {
	adj := make(map[lockKey][]lockKey)
	for _, e := range g.sortedEdges() {
		adj[e.from] = append(adj[e.from], e.to)
	}
	var cycles []lockCycle
	seen := make(map[string]bool)
	for _, e := range g.sortedEdges() {
		path := shortestLockPath(e.to, e.from, adj)
		if path == nil {
			continue
		}
		// keys: e.from, e.to, ... back to e.from (exclusive). path runs
		// from e.to (exclusive) to e.from (inclusive); dropping its last
		// element closes the cycle without repeating e.from. A self-loop
		// (from == to) is the single-node cycle.
		keys := []lockKey{e.from}
		if e.to != e.from {
			keys = append(append(keys, e.to), path[:len(path)-1]...)
		}
		rot := 0
		for i, k := range keys {
			if k < keys[rot] {
				rot = i
			}
		}
		keys = append(keys[rot:], keys[:rot]...)
		sig := make([]string, len(keys))
		for i, k := range keys {
			sig[i] = string(k)
		}
		s := strings.Join(sig, "|")
		if seen[s] {
			continue
		}
		seen[s] = true
		cyc := lockCycle{keys: keys}
		for i := range keys {
			cyc.edges = append(cyc.edges, g.edges[[2]lockKey{keys[i], keys[(i+1)%len(keys)]}])
		}
		cycles = append(cycles, cyc)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i].keys[0] < cycles[j].keys[0] })
	return cycles
}

// shortestLockPath returns a shortest from -> to node path (to
// inclusive, from exclusive) over adj, or nil. A self-loop query
// (from == to) returns the single-node path when the edge exists.
func shortestLockPath(from, to lockKey, adj map[lockKey][]lockKey) []lockKey {
	if from == to {
		return []lockKey{to}
	}
	prev := make(map[lockKey]lockKey)
	visited := map[lockKey]bool{from: true}
	queue := []lockKey{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if visited[next] {
				continue
			}
			visited[next] = true
			prev[next] = cur
			if next == to {
				var path []lockKey
				for n := to; n != from; n = prev[n] {
					path = append([]lockKey{n}, path...)
				}
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// acquireNotes renders the witness chain from fn to its (transitive)
// acquisition of lock k, one positioned line per hop.
func (f *Facts) acquireNotes(fn *types.Func, k lockKey) []string {
	var notes []string
	cur := fn
	for cur != nil {
		var fact *taintFact
		if m := f.acquires[cur]; m != nil {
			fact = m[k]
		}
		if fact == nil {
			break
		}
		if fact.next == nil {
			notes = append(notes, funcDisplayName(cur)+" locks "+fact.source+" at "+fact.srcPos.String())
			break
		}
		notes = append(notes, funcDisplayName(cur)+" calls "+funcDisplayName(fact.next)+" at "+fact.hopPos.String())
		cur = fact.next
	}
	return notes
}

// AcquiredLocks returns the display names of every lock fn
// transitively acquires, sorted. Exposed for tests.
func (f *Facts) AcquiredLocks(fn *types.Func) []string {
	if f == nil || f.acquires[fn] == nil {
		return nil
	}
	var out []string
	for k := range f.acquires[fn] {
		out = append(out, f.lockGraph.names[k])
	}
	sort.Strings(out)
	return out
}

// LockCycleCount reports how many distinct cycles the order graph
// holds. Exposed for tests.
func (f *Facts) LockCycleCount() int {
	if f == nil {
		return 0
	}
	return len(f.lockCycles)
}

// LockGraphDOT renders the acquisition-order graph in DOT form for
// the striplint -lockgraph mode. Nodes are mutex identities, edges
// carry their witness function and position, relative to the module
// root root so that the output does not depend on where the module is
// checked out; cyclic edges are drawn red and bold so a deadlock
// candidate stands out in the rendering.
func (f *Facts) LockGraphDOT(root string) string {
	cyclic := make(map[[2]lockKey]bool)
	for _, c := range f.lockCycles {
		for _, e := range c.edges {
			cyclic[[2]lockKey{e.from, e.to}] = true
		}
	}
	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("\trankdir=LR;\n\tnode [shape=box, fontname=\"monospace\"];\n")
	nodes := make([]lockKey, 0, len(f.lockGraph.names))
	for k := range f.lockGraph.names {
		nodes = append(nodes, k)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, k := range nodes {
		fmt.Fprintf(&b, "\t%q;\n", f.lockGraph.names[k])
	}
	for _, e := range f.lockGraph.sortedEdges() {
		label := funcDisplayName(e.fn)
		if e.via != nil {
			label += " -> " + funcDisplayName(e.via)
		}
		// \n is DOT's own line-break escape, so quote by hand rather
		// than with %q (which would escape the backslash).
		pos := f.fset.Position(e.pos)
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		attrs := fmt.Sprintf("label=\"%s\\n%s\"", label, pos)
		if cyclic[[2]lockKey{e.from, e.to}] {
			attrs += ", color=red, penwidth=2"
		}
		fmt.Fprintf(&b, "\t%q -> %q [%s];\n", f.lockGraph.names[e.from], f.lockGraph.names[e.to], attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
