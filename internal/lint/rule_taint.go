package lint

import (
	"go/ast"
	"go/types"
)

// NondeterminismTaint keeps nondeterminism out of the simulator and the
// election core. Every check reads the one source table, nondetSource:
//
//   - a direct draw from the global math/rand generator is reported in
//     every package (seed-explicit constructors are fine): the global
//     generator is seeded from the OS at start, so any draw is a fresh
//     leak, and the math/rand (v1) global can be reseeded behind the
//     caller's back;
//   - inside the taint scope, a direct wall-clock or environment read
//     is reported;
//   - inside the taint scope, a mention of a module function that
//     transitively reaches any source is reported with the full
//     witness chain in the notes. A one-line helper wrapping time.Now
//     in another package cannot launder the source past this check.
var NondeterminismTaint = &Analyzer{
	Name: "nondeterminism-taint",
	Doc: "forbid global math/rand draws everywhere, and wall-clock and " +
		"environment reads inside the deterministic simulator packages and the " +
		"election core, directly or through module functions that transitively " +
		"reach one (or a map-order leak) — the full call chain is printed with " +
		"the diagnostic",
	needsFacts: true,
	Run: func(pass *Pass) {
		path := pass.Pkg.Path()
		inScope := pass.Opts.Taint.Match(path)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				var self *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, _ = pass.Info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := useOf(pass.Info, id).(*types.Func)
					if !ok || fn == self || fn.Pkg() == nil {
						return true
					}
					desc := nondetSource(fn)
					switch src := fn.Pkg().Path(); {
					case desc != "" && (src == "math/rand" || src == "math/rand/v2"):
						pass.Reportf(id.Pos(),
							"%s.%s draws from the global generator; use the seeded stats.RNG wrapper",
							src, fn.Name())
					case !inScope:
						// Outside the taint scope only global draws count.
					case desc != "" && src == "time":
						pass.Reportf(id.Pos(),
							"time.%s reads the wall clock inside deterministic package %s; use the simulator clock",
							fn.Name(), path)
					case desc != "":
						pass.Reportf(id.Pos(),
							"%s read inside deterministic package %s; inject the value instead",
							desc, path)
					case pass.Facts.Tainted(fn) != nil:
						arrows, notes := pass.Facts.chain(fn)
						pass.ReportfNotes(id.Pos(), notes,
							"%s transitively reaches %s inside deterministic package %s: %s",
							funcDisplayName(fn), pass.Facts.Tainted(fn).source, path, arrows)
					}
					return true
				})
			}
		}
	},
}
