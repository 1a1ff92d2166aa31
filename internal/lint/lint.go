// Package lint is a repo-specific static-analysis framework
// ("striplint") that mechanically enforces the two invariants the
// compiler cannot see:
//
//   - the discrete-event simulation (internal/sim, internal/sched,
//     internal/uqueue, internal/workload, internal/stats,
//     internal/metrics, internal/analytic) must be bit-for-bit
//     deterministic under a fixed seed, and
//   - the live strip/ runtime must keep its sync.RWMutex locking
//     discipline race-free.
//
// The framework is stdlib-only (go/ast, go/parser, go/types): it
// loads and type-checks packages itself (see Loader), runs a set of
// named Analyzers over each package, and reports positioned
// Diagnostics. Individual diagnostics can be suppressed with a
//
//	//striplint:ignore <rule>[,<rule>...] -- <reason>
//
// comment on the offending line or on the line directly above it; the
// " -- " separator and the reason are mandatory and a malformed
// directive is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one positioned finding from one rule.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Column  int            `json:"column"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
	// Notes are secondary lines elaborating the finding — for the
	// interprocedural rules, one positioned line per hop of the call
	// chain from the flagged function to the nondeterminism source.
	Notes []string `json:"notes,omitempty"`
}

// String formats the diagnostic in the conventional
// file:line:col: rule: message shape used by go vet.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Rule, d.Message)
}

// Pass carries everything one Analyzer needs to inspect one
// type-checked package, mirroring golang.org/x/tools/go/analysis
// without the dependency.
type Pass struct {
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's facts about every expression and
	// identifier in Files.
	Info *types.Info
	// Opts are the effective analysis options (scopes); never nil.
	Opts *Options
	// Facts are the module-wide call-graph facts; non-nil only while
	// an interprocedural rule runs.
	Facts *Facts

	rule  string
	diags *[]Diagnostic
}

// Reportf records a diagnostic for the running rule at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, nil, format, args...)
}

// ReportfNotes records a diagnostic carrying secondary note lines
// (e.g. a call chain) for the running rule at pos.
func (p *Pass) ReportfNotes(pos token.Pos, notes []string, format string, args ...any) {
	p.report(pos, notes, format, args...)
}

func (p *Pass) report(pos token.Pos, notes []string, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Column:  position.Column,
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
		Notes:   notes,
	})
}

// Analyzer is one named, documented rule.
type Analyzer struct {
	// Name identifies the rule on the command line, in output and in
	// //striplint:ignore directives. Names are kebab-case.
	Name string
	// Doc is a one-paragraph description of what the rule enforces
	// and why.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
	// needsFacts marks interprocedural rules: RunAnalyzers builds the
	// module call graph and taint facts before running them.
	needsFacts bool
	// meta marks rules that do not inspect packages themselves but are
	// evaluated by RunAnalyzers over the results of the others
	// (unused-ignore).
	meta bool
}

// Analyzers returns every registered rule in stable (alphabetical)
// order.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		ConcurrencyInSim,
		FloatEq,
		MapOrderLeak,
		NondeterminismTaint,
		LockGuardedField,
		LockEarlyReturn,
		LockOrder,
		ErrDrop,
		UnusedIgnore,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// Select resolves a list of rule names to analyzers. An empty list
// selects every rule; an unknown name is an error.
func Select(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q", n)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// Options configures an analysis run. The zero value (and a nil
// *Options) selects the package-level default scopes below.
type Options struct {
	// Deterministic overrides DeterministicPkgs, the scope of
	// concurrency-in-sim.
	Deterministic Scope
	// Taint overrides TaintPkgs, where nondeterminism-taint reports
	// wall-clock and environment reads and tainted mentions (the
	// closure is always module-wide, and so is the global-rand check).
	Taint Scope
	// MapOrder overrides MapOrderPkgs, the scope of map-order-leak.
	MapOrder Scope
	// FloatStrict overrides FloatStrictPkgs (float-eq).
	FloatStrict Scope
	// LockChecked overrides LockCheckedPkgs, the scope of the lock
	// discipline rules.
	LockChecked Scope
	// LockOrder overrides LockOrderPkgs, the scope whose lock-order
	// cycles are reported (the graph itself is always module-wide).
	LockOrder Scope
	// ErrChecked overrides ErrCheckedPkgs, the scope of err-drop.
	ErrChecked Scope
	// Modules is the full set of loaded module packages over which the
	// interprocedural call graph is built (typically Loader.All()).
	// When nil the analyzed packages alone are used, so taint chains
	// passing through unlisted dependency packages become invisible.
	Modules []*Package
}

// effective returns a fully populated copy of o (which may be nil).
func (o *Options) effective() *Options {
	var e Options
	if o != nil {
		e = *o
	}
	if e.Deterministic == nil {
		e.Deterministic = DeterministicPkgs
	}
	if e.Taint == nil {
		e.Taint = TaintPkgs
	}
	if e.MapOrder == nil {
		e.MapOrder = MapOrderPkgs
	}
	if e.FloatStrict == nil {
		e.FloatStrict = FloatStrictPkgs
	}
	if e.LockChecked == nil {
		e.LockChecked = LockCheckedPkgs
	}
	if e.LockOrder == nil {
		e.LockOrder = LockOrderPkgs
	}
	if e.ErrChecked == nil {
		e.ErrChecked = ErrCheckedPkgs
	}
	return &e
}

// RunAnalyzers runs every analyzer over every package, applies
// //striplint:ignore suppression, and returns the surviving
// diagnostics sorted by position. Malformed ignore directives are
// reported under the pseudo-rule "striplint" and cannot themselves be
// suppressed. When the full rule set runs, well-formed directives that
// suppressed nothing are reported under unused-ignore. opts may be
// nil for the default scopes.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, opts *Options) []Diagnostic {
	eff := opts.effective()
	var facts *Facts
	for _, a := range analyzers {
		if a.needsFacts {
			modules := eff.Modules
			if modules == nil {
				modules = pkgs
			}
			facts = BuildFacts(modules, eff)
			break
		}
	}
	// unused-ignore is only meaningful when every rule had the chance
	// to use each directive; with a subset selected, directives for
	// unselected rules would be reported as rotten spuriously.
	checkUnused := false
	if selected := make(map[string]bool, len(analyzers)); true {
		for _, a := range analyzers {
			selected[a.Name] = true
		}
		checkUnused = selected[UnusedIgnore.Name]
		for _, a := range Analyzers() {
			if !selected[a.Name] {
				checkUnused = false
			}
		}
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			if a.meta {
				continue
			}
			pass := &Pass{
				Fset:  pkg.Fset,
				Files: pkg.Files,
				Pkg:   pkg.Types,
				Info:  pkg.Info,
				Opts:  eff,
				Facts: facts,
				rule:  a.Name,
				diags: &raw,
			}
			a.Run(pass)
		}
		idx, bad := buildIgnoreIndex(pkg.Fset, pkg.Files)
		for _, d := range raw {
			if !idx.suppresses(d) {
				out = append(out, d)
			}
		}
		out = append(out, bad...)
		if checkUnused {
			out = append(out, idx.unused()...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// Scope is a set of package-import-path suffixes, e.g.
// "internal/sim". A path is in scope when it equals an entry or ends
// with "/"+entry, so both "repro/internal/sim" and test fixtures
// living under a deeper prefix match.
type Scope []string

// Match reports whether the import path is in scope.
func (s Scope) Match(path string) bool {
	for _, e := range s {
		if path == e || hasPathSuffix(path, e) {
			return true
		}
	}
	return false
}

func hasPathSuffix(path, suffix string) bool {
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}

// DeterministicPkgs lists the packages that make up the
// discrete-event simulator. Everything here must be bit-for-bit
// reproducible under a fixed seed: no wall-clock reads, no global
// randomness, no goroutines, no iteration-order leaks.
var DeterministicPkgs = Scope{
	"internal/sim",
	"internal/sched",
	"internal/uqueue",
	"internal/workload",
	"internal/stats",
	"internal/metrics",
	"internal/analytic",
}

// MapOrderPkgs is the scope of map-order-leak: the deterministic
// simulator packages plus the strip durability code. WAL segments,
// checkpoint snapshots, replication frames and the election ledger —
// and strip/internal/frame, the envelope the last two are written in —
// must be byte-identical for equal states (the crash-point torture
// tests and the replica convergence checks compare them bit for bit),
// so map iteration order must never leak into a record sequence there
// either. A Scope matches exact paths, so a subpackage is listed on
// its own.
var MapOrderPkgs = append(append(Scope{}, DeterministicPkgs...),
	"strip",
	"strip/fault",
	"strip/internal/frame",
	"strip/repl",
	"strip/elect",
	// The metrics registry promises byte-identical exposition for
	// identical histories; a map-range over its series index would
	// break that the first time two series swapped places.
	"strip/obs",
)

// TaintPkgs is the scope of nondeterminism-taint's wall-clock,
// environment and tainted-mention checks: the deterministic simulator
// packages plus the election core. strip/elect cannot join
// DeterministicPkgs wholesale — its network shell legitimately runs
// goroutines — but the protocol core is clock-injected and PCG-seeded
// so that elections replay identically under test, and a wall-clock
// read in it, direct or through a helper, would silently break the
// seeded-determinism regression. The shell's one default clock carries
// a reasoned suppression.
var TaintPkgs = append(append(Scope{}, DeterministicPkgs...),
	"strip/elect",
)

// FloatStrictPkgs lists the packages whose float arithmetic feeds the
// paper's reported metrics, where == / != on floats silently destroys
// reproducibility across compilers and optimization levels.
var FloatStrictPkgs = Scope{
	"internal/metrics",
	"internal/analytic",
}

// LockCheckedPkgs lists the packages swept by the lock-discipline
// rules: the live strip/ runtime, whose sync.RWMutex protocol around
// the registry, view entries, general store and WAL must hold under
// heavy concurrent traffic, and the replication subsystem, whose
// frame ring and connection registries are hit by one goroutine per
// replica.
var LockCheckedPkgs = Scope{
	"strip",
	"strip/repl",
	"strip/elect",
	// The metrics registry is read by the scrape endpoint while every
	// pipeline stage observes into it; its snapshot-under-lock,
	// format-outside-lock split is load-bearing.
	"strip/obs",
}

// LockOrderPkgs lists the packages whose functions may anchor a
// lock-order cycle report. It adds strip/fault to the lock-discipline
// scope: the fault-injecting filesystem holds its own mutexes
// (MemFS.mu, memFile.mu) under the strip WAL path, so an inversion
// involving them is exactly the cross-package deadlock the upcoming
// shard refactor must not introduce.
var LockOrderPkgs = Scope{
	"strip",
	"strip/repl",
	"strip/fault",
	"strip/elect",
	// Gauge funcs registered into the obs registry take db.mu under
	// the registry's own mutex during a scrape; an inversion against
	// an Observe call from under db.mu would deadlock the scheduler.
	"strip/obs",
}

// ErrCheckedPkgs lists the packages swept by err-drop: everywhere a
// durability error (WAL append/sync/rotate, fault.FS operations) can
// surface and must not be silently discarded (the PR-5 degraded-mode
// contract).
var ErrCheckedPkgs = Scope{
	"strip",
	"strip/repl",
	"strip/fault",
	"strip/elect",
}
