package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide facts behind the interprocedural
// rules: a direct call graph over every function declared in the
// module, the set of functions that intrinsically touch a
// nondeterminism source, and the taint closure of "transitively
// reaches a source" propagated backwards over the graph.
//
// The graph is deliberately syntactic-plus-types, not a full
// points-to analysis: an edge exists wherever a function's body
// mentions another module function (a call, a method value, a
// callback being passed along — any mention is treated as a potential
// call, which over-approximates in the safe direction). Two dynamic
// mechanisms escape it and are documented limitations: calls through
// interface methods resolve to the interface, not to implementations,
// and calls through function-typed variables or struct fields (e.g. a
// Config.Clock) resolve to nothing.

// Facts are module-wide results shared by interprocedural rules.
type Facts struct {
	// taint maps every module function that transitively reaches a
	// nondeterminism source to the first hop of its witness chain.
	taint map[*types.Func]*taintFact

	// fset renders positions for the lock-order graph (the loader
	// shares one FileSet across every package it loads).
	fset *token.FileSet
	// acquires maps fn -> lock -> how fn transitively acquires it;
	// acquiresWrite records whether any of fn's paths to the lock is a
	// write acquisition (Lock rather than RLock), which decides whether
	// a read-held same-key nesting is the benign shared-read idiom or
	// the RWMutex upgrade deadlock.
	acquires      map[*types.Func]map[lockKey]*taintFact
	acquiresWrite map[*types.Func]map[lockKey]bool
	// lockGraph is the global lock-acquisition-order graph and
	// lockCycles its potential deadlocks.
	lockGraph  *lockGraph
	lockCycles []lockCycle
	// errProducers maps every error-returning module function whose
	// error transitively originates on a durability path to its
	// witness chain; durabilityOps are the intrinsic sources.
	errProducers  map[*types.Func]*taintFact
	durabilityOps map[*types.Func]string
}

// taintFact is one function's entry in the taint closure: a witness
// path toward a nondeterminism source, stored as a linked next-hop so
// full chains can be reconstructed for diagnostics.
type taintFact struct {
	// source describes the root cause, e.g. "time.Now (wall clock)".
	source string
	// srcPos is where the root source is touched.
	srcPos token.Position
	// next is the callee this function reaches the source through;
	// nil when the function touches the source directly.
	next *types.Func
	// hopPos is where this function mentions next (or, for a direct
	// source, the source itself).
	hopPos token.Position
}

// Tainted returns the taint fact for fn, or nil. Exposed for tests.
func (f *Facts) Tainted(fn *types.Func) *taintFact {
	if f == nil {
		return nil
	}
	return f.taint[fn]
}

// cgNode is one declared function in the call graph.
type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// edges are mentions of other module functions, in source order.
	edges []cgEdge
	// ifaceEdges link an interface method (a node with no decl) to the
	// module methods that implement it. They feed the lock-order and
	// err-discipline closures — where dispatching to any
	// implementation over-approximates in the safe direction — but not
	// the determinism taint, where the simulator's injected-clock
	// pattern would make every interface with one wall-clock
	// implementation a false positive.
	ifaceEdges []cgEdge
	// intrinsic is non-nil when the body itself touches a source.
	intrinsic *taintFact
}

// cgEdge is one mention of a module function inside another.
type cgEdge struct {
	callee *types.Func
	pos    token.Pos
}

// BuildFacts constructs the call graph over modules and computes the
// nondeterminism taint closure. The modules slice should cover every
// module package reachable from the analysis targets (Loader.All());
// packages outside it contribute no nodes, so chains through them are
// invisible.
func BuildFacts(modules []*Package, opts *Options) *Facts {
	opts = opts.effective()
	nodes := make(map[*types.Func]*cgNode)
	var order []*cgNode
	modPaths := make(map[string]bool, len(modules))
	for _, pkg := range modules {
		modPaths[pkg.Path] = true
	}

	for _, pkg := range modules {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &cgNode{fn: fn, decl: fd, pkg: pkg}
				nodes[fn] = n
				order = append(order, n)
			}
		}
	}

	for _, n := range order {
		collectEdges(n, modPaths, opts)
	}
	order = addInterfaceEdges(modules, nodes, order)

	f := &Facts{taint: propagateTaint(order, nodes)}
	if len(modules) > 0 {
		f.fset = modules[0].Fset
	}
	buildLockFacts(f, modules, order, nodes)
	f.durabilityOps = collectDurabilityOps(modules)
	buildErrFacts(f, order, nodes)
	return f
}

// addInterfaceEdges creates a node for every method of every interface
// declared in the module and links it to each module method that
// implements it, so the lock and err closures see through
// interface dispatch (e.g. fault.File.Sync reaching os.File.Sync via
// the osFS implementation). Returns the extended order slice.
func addInterfaceEdges(modules []*Package, nodes map[*types.Func]*cgNode, order []*cgNode) []*cgNode {
	type namedIface struct {
		pkg   *Package
		iface *types.Interface
	}
	var ifaces []namedIface
	type concrete struct {
		pkg *Package
		t   *types.Named
	}
	var concretes []concrete
	for _, pkg := range modules {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, namedIface{pkg: pkg, iface: iface})
				}
				continue
			}
			concretes = append(concretes, concrete{pkg: pkg, t: named})
		}
	}
	for _, ni := range ifaces {
		for _, c := range concretes {
			ptr := types.NewPointer(c.t)
			if !types.Implements(ptr, ni.iface) && !types.Implements(c.t, ni.iface) {
				continue
			}
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ni.iface.NumMethods(); i++ {
				im := ni.iface.Method(i)
				sel := ms.Lookup(im.Pkg(), im.Name())
				if sel == nil {
					continue
				}
				impl, ok := sel.Obj().(*types.Func)
				if !ok {
					continue
				}
				implNode, ok := nodes[impl]
				if !ok {
					continue // implementation without a module body
				}
				in := nodes[im]
				if in == nil {
					in = &cgNode{fn: im, pkg: ni.pkg}
					nodes[im] = in
					order = append(order, in)
				}
				in.ifaceEdges = append(in.ifaceEdges, cgEdge{callee: impl, pos: implNode.decl.Name.Pos()})
			}
		}
	}
	return order
}

// reverseEdges inverts the graph for backward propagation: for each
// callee, the list of (caller, mention position) pairs, stored in the
// cgEdge shape with the callee field holding the caller. Interface
// dispatch edges are included when useIface is set.
func reverseEdges(order []*cgNode, useIface bool) map[*types.Func][]cgEdge {
	callers := make(map[*types.Func][]cgEdge)
	for _, n := range order {
		for _, e := range n.edges {
			callers[e.callee] = append(callers[e.callee], cgEdge{callee: n.fn, pos: e.pos})
		}
		if useIface {
			for _, e := range n.ifaceEdges {
				callers[e.callee] = append(callers[e.callee], cgEdge{callee: n.fn, pos: e.pos})
			}
		}
	}
	return callers
}

// collectEdges fills one node's outgoing edges and intrinsic source by
// walking its body. Every identifier resolving to a function is
// considered: module functions become edges, known nondeterministic
// stdlib functions become the intrinsic source. A map-range whose
// iteration order escapes (same sink analysis as map-order-leak) is
// also an intrinsic source, but only for functions outside the
// map-order scope — in-scope leaks are map-order-leak's own,
// directly positioned findings.
func collectEdges(n *cgNode, modPaths map[string]bool, opts *Options) {
	info := n.pkg.Info
	ast.Inspect(n.decl, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.Ident:
			fn, ok := useOf(info, nd).(*types.Func)
			if !ok || fn == n.fn || fn.Pkg() == nil {
				return true
			}
			if modPaths[fn.Pkg().Path()] {
				n.edges = append(n.edges, cgEdge{callee: fn, pos: nd.Pos()})
				return true
			}
			if n.intrinsic == nil {
				if desc := nondetSource(fn); desc != "" {
					pos := n.pkg.Fset.Position(nd.Pos())
					n.intrinsic = &taintFact{source: desc, srcPos: pos, hopPos: pos}
				}
			}
		case *ast.RangeStmt:
			if n.intrinsic != nil || opts.MapOrder.Match(n.pkg.Path) {
				return true
			}
			if !isMap(info, nd.X) {
				return true
			}
			if sink := findOrderSink(info, n.decl, nd); sink != "" {
				pos := n.pkg.Fset.Position(nd.For)
				n.intrinsic = &taintFact{
					source: "map iteration order (" + sink + ")",
					srcPos: pos,
					hopPos: pos,
				}
			}
		}
		return true
	})
}

// randConstructors are the seed-explicit entry points of math/rand
// and math/rand/v2. Constructing a generator from an explicit seed is
// deterministic; everything reached through one is a method on
// *rand.Rand, which is not a source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
	"NewSource":  true,
}

// nondetSource reports whether fn is a nondeterminism source outside
// the module — the wall clock, the global math/rand generator or the
// process environment — returning a short description or "".
func nondetSource(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "" // methods (e.g. on a seeded *rand.Rand) are fine
	}
	path := fn.Pkg().Path()
	switch path {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name() + " (wall clock)"
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return path + "." + fn.Name() + " (global generator)"
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + fn.Name() + " (process environment)"
		}
	}
	return ""
}

// propagateTaint runs a breadth-first backward closure from the
// intrinsically tainted nodes over reversed edges. Node and edge
// ordering is source order, so the witness chain chosen for each
// function is deterministic (shortest, ties broken by position).
func propagateTaint(order []*cgNode, nodes map[*types.Func]*cgNode) map[*types.Func]*taintFact {
	taint := make(map[*types.Func]*taintFact)

	// Reverse edges: callee -> callers, in deterministic order. The
	// determinism taint deliberately excludes interface-dispatch
	// edges; see cgNode.ifaceEdges.
	callers := reverseEdges(order, false)

	var queue []*types.Func
	for _, n := range order {
		if n.intrinsic != nil {
			taint[n.fn] = n.intrinsic
			queue = append(queue, n.fn)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		fact := taint[cur]
		for _, caller := range callers[cur] {
			if _, seen := taint[caller.callee]; seen {
				continue
			}
			n := nodes[caller.callee]
			taint[caller.callee] = &taintFact{
				source: fact.source,
				srcPos: fact.srcPos,
				next:   cur,
				hopPos: n.pkg.Fset.Position(caller.pos),
			}
			queue = append(queue, caller.callee)
		}
	}
	return taint
}

// chain renders the witness path from a tainted fn (exclusive of the
// flagged call site) to the source as a compact arrow string plus one
// positioned note per hop.
func (f *Facts) chain(fn *types.Func) (arrows string, notes []string) {
	var parts []string
	cur := fn
	for ; f.taint[cur].next != nil; cur = f.taint[cur].next {
		parts = append(parts, funcDisplayName(cur))
	}
	parts = append(parts, funcDisplayName(cur), f.taint[cur].source)
	return strings.Join(parts, " -> "), chainFacts(f.taint, fn, "touches")
}

// chainFacts renders the witness chain of a fact map entry: one
// positioned "calls" line per hop and a terminal line using verb.
func chainFacts(m map[*types.Func]*taintFact, fn *types.Func, verb string) []string {
	var notes []string
	cur := fn
	for cur != nil {
		fact := m[cur]
		if fact == nil {
			break
		}
		if fact.next == nil {
			notes = append(notes, funcDisplayName(cur)+" "+verb+" "+fact.source+" at "+fact.srcPos.String())
			break
		}
		notes = append(notes, funcDisplayName(cur)+" calls "+funcDisplayName(fact.next)+" at "+fact.hopPos.String())
		cur = fact.next
	}
	return notes
}

// funcDisplayName renders pkg.Func or pkg.(Recv).Method for
// diagnostics.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// sortedFuncDecls returns the file's function declarations in source
// order (parsing already yields them ordered; this is a stable copy
// used by rules that iterate more than once).
func sortedFuncDecls(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}
