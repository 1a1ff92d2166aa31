package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// This file holds the shared machinery of the lock-discipline rule
// family (scoped to strip/ via Options.LockChecked):
//
//   - inference of which struct fields are guarded by which mutex,
//   - extraction of Lock/Unlock events from a function body, and
//   - the derived "held" intervals an access must fall into.
//
// A field is considered guarded when it sits in the same contiguous
// declaration run as a sync.Mutex/sync.RWMutex field (no blank line
// in between — the dominant Go idiom "mu guards the fields below"),
// or when its doc or trailing comment says "guarded by <mu>"
// explicitly. A blank line or a freshly documented group ends the
// mu-adjacent zone, which is exactly how strip.DB separates its
// mutex-guarded registry from its scheduler-owned state.
//
// Two conventions keep the rules usable:
//
//   - functions whose name ends in "Locked" are exempt from the
//     guarded-field access check: the suffix declares "caller holds
//     the lock", and the call sites are themselves checked.
//   - function literals are analyzed as their own scope; a literal
//     launched by `go` is never exempt, since the launcher's lock does
//     not outlive the launch.

// guardedField records the mutex protecting one struct field.
type guardedField struct {
	mu         string // mutex field name, e.g. "mu"
	structName string
	explicit   bool // came from a "guarded by" comment, not adjacency
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// inferGuardedFields maps field objects of structs declared in this
// package to the mutex guarding them.
func inferGuardedFields(pass *Pass) map[*types.Var]*guardedField {
	out := make(map[*types.Var]*guardedField)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			inferStructGuards(pass, ts.Name.Name, st, out)
			return true
		})
	}
	return out
}

func inferStructGuards(pass *Pass, structName string, st *ast.StructType, out map[*types.Var]*guardedField) {
	zoneMu := ""        // active mu-adjacent zone, "" when closed
	lastEnd := -1 << 30 // line the previous field ended on
	for _, field := range st.Fields.List {
		start := pass.Fset.Position(field.Pos()).Line
		if field.Doc != nil {
			start = pass.Fset.Position(field.Doc.Pos()).Line
		}
		end := pass.Fset.Position(field.End()).Line

		if muName, ok := mutexFieldName(pass, field); ok {
			zoneMu = muName
			lastEnd = end
			continue
		}

		gapped := start != lastEnd+1
		lastEnd = end
		guard := ""
		explicit := false
		if m := guardedByRe.FindStringSubmatch(fieldCommentText(field)); m != nil {
			guard = m[1]
			explicit = true
		} else if zoneMu != "" && !gapped {
			guard = zoneMu
		} else {
			zoneMu = ""
			continue
		}
		for _, name := range field.Names {
			if v, ok := pass.Info.Defs[name].(*types.Var); ok {
				out[v] = &guardedField{mu: guard, structName: structName, explicit: explicit}
			}
		}
	}
}

// mutexFieldName reports whether the field is a named sync.Mutex or
// sync.RWMutex declaration, returning the field name.
func mutexFieldName(pass *Pass, field *ast.Field) (string, bool) {
	if len(field.Names) != 1 {
		return "", false
	}
	tv, ok := pass.Info.Types[field.Type]
	if !ok || !isSyncMutex(tv.Type) {
		return "", false
	}
	return field.Names[0].Name, true
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

func fieldCommentText(field *ast.Field) string {
	var b strings.Builder
	if field.Doc != nil {
		b.WriteString(field.Doc.Text())
	}
	if field.Comment != nil {
		b.WriteString(field.Comment.Text())
	}
	return b.String()
}

// lockEvent is one Lock/Unlock-family call (or deferral) on a mutex
// reached through a plain selector path like "db.mu" or "tx.db.mu".
type lockEvent struct {
	pos      token.Pos // the call's position
	end      token.Pos // just past the call
	path     string    // receiver path including the mutex field
	op       string    // Lock, RLock, Unlock, RUnlock
	deferred bool
	// muExpr is the receiver expression naming the mutex ("db.mu" in
	// db.mu.Lock()), kept so the lock-order machinery can resolve the
	// mutex's module-wide identity through the type checker.
	muExpr ast.Expr
}

// collectLockEvents gathers the lock events of one function scope
// (literal bodies excluded — they are scopes of their own), in source
// order.
func collectLockEvents(info *types.Info, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	inspectScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if ev, ok := lockCall(info, n.X, false); ok {
				events = append(events, ev)
			}
		case *ast.DeferStmt:
			if ev, ok := lockCall(info, n.Call, true); ok {
				events = append(events, ev)
			}
		}
	})
	return events
}

// lockCall decodes expr as a mutex Lock/Unlock-family call.
func lockCall(info *types.Info, expr ast.Expr, deferred bool) (lockEvent, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return lockEvent{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockEvent{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	path := selectorPath(sel.X)
	if path == "" {
		return lockEvent{}, false
	}
	return lockEvent{pos: call.Pos(), end: call.End(), path: path, op: op, deferred: deferred, muExpr: sel.X}, true
}

// selectorPath renders a pure identifier chain ("db.mu", "tx.db.mu")
// or "" for anything with calls, indexing or dereferences in it.
func selectorPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := selectorPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// heldSpan is one interval of the function body during which a mutex
// is held. write distinguishes Lock from RLock.
type heldSpan struct {
	from, to token.Pos
	write    bool
}

// heldIntervals turns a scope's lock events into per-mutex-path held
// intervals. Manual pairs are matched LIFO in source order; a
// deferred unlock — and, conservatively, a lock never unlocked in
// source order — holds to the end of the scope.
func heldIntervals(events []lockEvent, scopeEnd token.Pos) map[string][]heldSpan {
	out := make(map[string][]heldSpan)
	open := make(map[string][]lockEvent)
	for _, ev := range events {
		switch ev.op {
		case "Lock", "RLock":
			if ev.deferred {
				continue // defer mu.Lock() is nonsense; ignore
			}
			open[ev.path] = append(open[ev.path], ev)
		case "Unlock", "RUnlock":
			stack := open[ev.path]
			if len(stack) == 0 {
				continue // unmatched unlock; lock-early-return reports it
			}
			l := stack[len(stack)-1]
			open[ev.path] = stack[:len(stack)-1]
			to := ev.pos
			if ev.deferred {
				to = scopeEnd
			}
			out[ev.path] = append(out[ev.path], heldSpan{from: l.end, to: to, write: l.op == "Lock"})
		}
	}
	for path, stack := range open {
		for _, l := range stack {
			out[path] = append(out[path], heldSpan{from: l.end, to: scopeEnd, write: l.op == "Lock"})
		}
	}
	return out
}

// covered reports whether pos lies in a held interval of the mutex at
// path; needWrite requires the interval to be a write (Lock) hold.
func covered(spans map[string][]heldSpan, path string, pos token.Pos, needWrite bool) bool {
	for _, s := range spans[path] {
		if pos >= s.from && pos < s.to && (s.write || !needWrite) {
			return true
		}
	}
	return false
}

// guardedAccess is one mention of a guarded field in a scope.
type guardedAccess struct {
	sel   *ast.SelectorExpr
	field *types.Var
	guard *guardedField
	// base is the receiver path of the struct value ("db", "tx.db").
	base  string
	write bool
}

// collectGuardedAccesses finds guarded-field mentions in one scope
// (literal bodies excluded). Accesses through anything but a plain
// identifier chain are skipped: the lock path cannot be named, so the
// check would only guess.
func collectGuardedAccesses(info *types.Info, body ast.Node, guarded map[*types.Var]*guardedField) []guardedAccess {
	writes := make(map[*ast.SelectorExpr]bool)
	markWrites := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				writes[sel] = true
			}
			return true
		})
	}
	inspectScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markWrites(lhs)
			}
		case *ast.IncDecStmt:
			markWrites(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// Taking the address lets the caller mutate through
				// the pointer; treat as a write conservatively.
				markWrites(n.X)
			}
		}
	})

	var out []guardedAccess
	inspectScope(body, func(n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		v, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return
		}
		g, ok := guarded[v]
		if !ok {
			return
		}
		base := selectorPath(sel.X)
		if base == "" {
			return
		}
		out = append(out, guardedAccess{sel: sel, field: v, guard: g, base: base, write: writes[sel]})
	})
	return out
}

// lineKey identifies a guarded access by field and source line, so
// rules can collapse multiple mentions on one line (x = append(x, v))
// into a single finding.
func lineKey(pass *Pass, acc guardedAccess) string {
	return fmt.Sprintf("%s.%s:%d", acc.base, acc.field.Name(), pass.Fset.Position(acc.sel.Pos()).Line)
}

// inspectScope walks body, calling fn for every node but never
// descending into function literals: a literal is its own lock scope.
func inspectScope(body ast.Node, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// funcScopes yields every analysis scope in a file's functions: each
// FuncDecl body and each nested FuncLit body, with the launching
// context. goLit marks literals launched directly by a go statement.
type funcScope struct {
	name  string // enclosing declaration name, for messages
	body  *ast.BlockStmt
	goLit bool
}

func funcScopes(f *ast.File) []funcScope {
	var out []funcScope
	for _, fd := range sortedFuncDecls(f) {
		out = append(out, funcScope{name: fd.Name.Name, body: fd.Body})
		goLits := make(map[*ast.FuncLit]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					goLits[lit] = true
				}
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcScope{name: fd.Name.Name, body: lit.Body, goLit: goLits[lit]})
			}
			return true
		})
	}
	return out
}
