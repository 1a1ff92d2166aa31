package lint

import (
	"strings"
)

// LockGuardedField checks that fields inferred to be mutex-guarded
// (see lockfields.go) are only touched while the guarding mutex is
// held in the same function: writes require the write lock, reads are
// satisfied by either Lock or RLock. Functions named *Locked are
// exempt — the suffix is the repo's caller-holds-the-lock convention —
// but a function literal launched with `go` never is: the goroutine
// runs after the launcher (and its caller) may have released the lock,
// so every guarded access inside the literal needs its own Lock/Unlock
// span there, whatever the launching function's name.
var LockGuardedField = &Analyzer{
	Name: "lock-guarded-field",
	Doc: "flag accesses to mutex-guarded struct fields (mu-adjacent or " +
		"'guarded by mu' comment) outside a Lock/Unlock span in the same " +
		"function; *Locked-suffixed functions are exempt, go-launched " +
		"literals inside them are not",
	Run: func(pass *Pass) {
		if !pass.Opts.LockChecked.Match(pass.Pkg.Path()) {
			return
		}
		guarded := inferGuardedFields(pass)
		if len(guarded) == 0 {
			return
		}
		for _, f := range pass.Files {
			for _, scope := range funcScopes(f) {
				if !scope.goLit && strings.HasSuffix(scope.name, "Locked") {
					continue
				}
				events := collectLockEvents(pass.Info, scope.body)
				spans := heldIntervals(events, scope.body.End())
				seen := make(map[string]bool)
				for _, acc := range collectGuardedAccesses(pass.Info, scope.body, guarded) {
					muPath := acc.base + "." + acc.guard.mu
					if covered(spans, muPath, acc.sel.Pos(), acc.write) {
						continue
					}
					// x = append(x, ...) mentions the field twice on one
					// line; one finding per field and line is enough.
					key := lineKey(pass, acc)
					if seen[key] {
						continue
					}
					seen[key] = true
					if scope.goLit {
						pass.Reportf(acc.sel.Pos(),
							"goroutine launched in %s captures guarded field %s.%s without locking %s inside the literal",
							scope.name, acc.base, acc.field.Name(), muPath)
						continue
					}
					verb := "read"
					want := muPath + ".Lock or ." + "RLock"
					if acc.write {
						verb = "write to"
						want = muPath + ".Lock"
					}
					pass.Reportf(acc.sel.Pos(),
						"%s %s.%s (guarded by %s.%s) without holding %s in %s",
						verb, acc.base, acc.field.Name(), acc.guard.structName,
						acc.guard.mu, want, scope.name)
				}
			}
		}
	},
}
