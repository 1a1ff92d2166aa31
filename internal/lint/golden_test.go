package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe extracts the quoted regexps from a // want "..." comment.
var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectation is one // want entry pinned to a file and line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants scans every comment in the loaded packages for
//
//	// want "regexp" ["regexp" ...]
//
// expectations, in the style of golang.org/x/tools analysistest.
func collectWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// The marker may trail other comment text (e.g. an
					// ignore directive whose own line expects an
					// unused-ignore finding).
					marker := strings.Index(c.Text, "// want ")
					if marker < 0 {
						continue
					}
					rest := c.Text[marker+len("// want "):]
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range wantRe.FindAllString(rest, -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants
}

// runGolden loads testdata/<name>/... and checks the single rule's
// diagnostics against the fixtures' want comments, both directions.
// The unused-ignore meta-rule is only evaluated under the full rule
// set, so its golden run selects every rule and the fixture must be
// clean apart from the wanted findings.
func runGolden(t *testing.T, ruleName string) {
	t.Helper()
	runGoldenDir(t, ruleName, filepath.Join("testdata", ruleName))
}

// runGoldenDir is runGolden over the fixtures under dir alone.
func runGoldenDir(t *testing.T, ruleName, dir string) {
	t.Helper()
	names := []string{ruleName}
	if ruleName == UnusedIgnore.Name {
		names = nil
	}
	analyzers, err := Select(names)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dir + "/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages under %s", dir)
	}

	diags := RunAnalyzers(pkgs, analyzers, &Options{Modules: loader.All()})
	wants := collectWants(t, pkgs)

	for _, d := range diags {
		if d.Rule == "striplint" {
			t.Errorf("fixture has a malformed ignore directive: %s", d)
			continue
		}
		if !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// matchWant consumes the first unmatched expectation on the
// diagnostic's line whose regexp matches its message.
func matchWant(wants []*expectation, d Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.File && w.line == d.Line && w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func TestMapOrderLeakGolden(t *testing.T)        { runGolden(t, "map-order-leak") }
func TestConcurrencyInSimGolden(t *testing.T)    { runGolden(t, "concurrency-in-sim") }
func TestFloatEqGolden(t *testing.T)             { runGolden(t, "float-eq") }
func TestNondeterminismTaintGolden(t *testing.T) { runGolden(t, "nondeterminism-taint") }
func TestLockGuardedFieldGolden(t *testing.T)    { runGolden(t, "lock-guarded-field") }
func TestLockEarlyReturnGolden(t *testing.T)     { runGolden(t, "lock-early-return") }
func TestUnusedIgnoreGolden(t *testing.T)        { runGolden(t, "unused-ignore") }
func TestLockOrderGolden(t *testing.T)           { runGolden(t, "lock-order") }
func TestErrDropGolden(t *testing.T)             { runGolden(t, "err-drop") }

// The checks of three former rules now report under the rule they were
// folded into; each keeps its own golden run over the fixtures it had,
// so a regression in a folded check is named by the test that pins it.

// TestNondeterministicTimeGolden: wall-clock and environment reads,
// reported by nondeterminism-taint.
func TestNondeterministicTimeGolden(t *testing.T) {
	runGoldenDir(t, "nondeterminism-taint", filepath.Join("testdata", "nondeterminism-taint", "wallclock"))
}

// TestGlobalRandGolden: global math/rand draws, reported by
// nondeterminism-taint in every package.
func TestGlobalRandGolden(t *testing.T) {
	runGoldenDir(t, "nondeterminism-taint", filepath.Join("testdata", "nondeterminism-taint", "globalrand"))
}

// TestLockGoroutineCaptureGolden: go-launched literals that touch a
// guarded field, reported by lock-guarded-field.
func TestLockGoroutineCaptureGolden(t *testing.T) {
	runGoldenDir(t, "lock-guarded-field", filepath.Join("testdata", "lock-guarded-field", "capture"))
}

// TestInterproceduralGain pins the reason nondeterminism-taint builds a
// call graph: over the taint fixture — where time.Now is reached from
// the deterministic package only through two levels of helpers in
// another package — the per-package syntactic determinism rules stay
// silent, and the taint rule reports the call with its full witness
// chain.
func TestInterproceduralGain(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "nondeterminism-taint") + "/...")
	if err != nil {
		t.Fatal(err)
	}
	// The claim under test is about the deterministic package: the
	// helper package holding the sources is out of the deterministic
	// scope by construction (the global-rand check flags the helper's
	// own body, but nothing ties it to the simulator).
	var simPkgs []*Package
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, "nondeterminism-taint/internal/sim") {
			simPkgs = append(simPkgs, p)
		}
	}
	if len(simPkgs) != 1 {
		t.Fatalf("expected one deterministic fixture package, got %d", len(simPkgs))
	}
	pkgs = simPkgs
	opts := &Options{Modules: loader.All()}

	syntactic, err := Select([]string{"map-order-leak", "concurrency-in-sim"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers(pkgs, syntactic, opts) {
		t.Errorf("syntactic rule unexpectedly caught the laundered source: %s", d)
	}

	taint, err := Select([]string{"nondeterminism-taint"})
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs, taint, opts)
	found := false
	for _, d := range diags {
		if !strings.Contains(d.Message, "transitively reaches time.Now") {
			continue
		}
		found = true
		if len(d.Notes) < 2 {
			t.Errorf("taint diagnostic should carry one note per hop (>= 2 for two helper levels), got %d: %v", len(d.Notes), d.Notes)
		}
		for _, note := range d.Notes {
			if !strings.Contains(note, ".go:") {
				t.Errorf("chain note lacks a source position: %q", note)
			}
		}
	}
	if !found {
		t.Fatalf("nondeterminism-taint missed the two-level time.Now chain; got %v", diags)
	}
}

// TestLockOrderInterproceduralGain pins the reason lock-order exists:
// over the lock-order fixture — where each nested acquisition hides
// behind a function call, so no single scope ever holds both locks —
// every per-scope lock rule stays silent, and lock-order reports
// the inversion with a witness chain naming both call paths.
func TestLockOrderInterproceduralGain(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "lock-order") + "/...")
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Modules: loader.All()}

	perScope, err := Select([]string{"lock-guarded-field", "lock-early-return"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers(pkgs, perScope, opts) {
		t.Errorf("per-scope lock rule unexpectedly caught the interprocedural inversion: %s", d)
	}

	order, err := Select([]string{"lock-order"})
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs, order, opts)
	found := false
	for _, d := range diags {
		if !strings.Contains(d.Message, "Registry.mu") {
			continue
		}
		found = true
		notes := strings.Join(d.Notes, "\n")
		for _, path := range []string{"Install", "Compact"} {
			if !strings.Contains(notes, path) {
				t.Errorf("cycle diagnostic should name the %s call path in its witness chain; notes:\n%s", path, notes)
			}
		}
		if !strings.Contains(notes, ".go:") {
			t.Errorf("witness chain lacks source positions:\n%s", notes)
		}
	}
	if !found {
		t.Fatalf("lock-order missed the two-mutex inversion; got %v", diags)
	}
}

// TestShippedTreeClean is the acceptance gate: the linter must exit
// clean on the repository itself, with every rule enabled. Any
// violation must be fixed or carry a reasoned //striplint:ignore.
func TestShippedTreeClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(loader.Root() + "/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from the module; loader is missing the tree", len(pkgs))
	}
	for _, d := range RunAnalyzers(pkgs, Analyzers(), &Options{Modules: loader.All()}) {
		t.Errorf("shipped tree violation: %s", d)
	}
}

// TestRuleScoping checks that every deterministic package the rules
// guard actually exists in the tree, so a future rename cannot
// silently shrink the lint's coverage.
func TestRuleScoping(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(loader.Root() + "/...")
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool)
	for _, p := range pkgs {
		have[p.Path] = true
	}
	for _, scope := range []Scope{DeterministicPkgs, TaintPkgs, MapOrderPkgs, FloatStrictPkgs, LockCheckedPkgs, LockOrderPkgs, ErrCheckedPkgs} {
		for _, entry := range scope {
			found := false
			for path := range have {
				if scope.Match(path) && strings.HasSuffix(path, entry) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("scope entry %q matches no package in the tree; update the scope after the rename", entry)
			}
		}
	}
}

// TestDeterminismScopeCoversQueueAndSched pins the event-loop data
// structures inside the determinism rules' coverage: internal/uqueue
// (the update queue) and internal/sched (the scheduler) must stay in
// both the concurrency/time scope and the map-order scope. A scope
// edit that drops either package silently un-lints the exact code the
// paper's determinism claims rest on.
func TestDeterminismScopeCoversQueueAndSched(t *testing.T) {
	for _, pkg := range []string{"repro/internal/uqueue", "repro/internal/sched"} {
		if !DeterministicPkgs.Match(pkg) {
			t.Errorf("DeterministicPkgs no longer covers %s", pkg)
		}
		if !MapOrderPkgs.Match(pkg) {
			t.Errorf("MapOrderPkgs no longer covers %s", pkg)
		}
	}
}

// TestFrameScopeCoverage pins the shared frame codec inside the
// map-order scope: the replication stream and the election ledger are
// written in its envelope and must be byte-stable, and a Scope matches
// exact paths, so strip's entry does not cover it.
func TestFrameScopeCoverage(t *testing.T) {
	if !MapOrderPkgs.Match("repro/strip/internal/frame") {
		t.Error("MapOrderPkgs no longer covers repro/strip/internal/frame")
	}
}

// TestElectScopeCoverage pins the election package inside the lint
// coverage the failover invariants rest on: its wire frames must be
// byte-stable (map-order), its shell's mutexes follow the lock
// discipline, its I/O errors cannot be dropped silently, and nothing
// may read the wall clock or draw global randomness in the seeded
// core, directly or through a helper (taint). It must NOT be in
// DeterministicPkgs wholesale — the shell legitimately runs goroutines.
func TestElectScopeCoverage(t *testing.T) {
	const pkg = "repro/strip/elect"
	for name, scope := range map[string]Scope{
		"TaintPkgs":       TaintPkgs,
		"MapOrderPkgs":    MapOrderPkgs,
		"LockCheckedPkgs": LockCheckedPkgs,
		"LockOrderPkgs":   LockOrderPkgs,
		"ErrCheckedPkgs":  ErrCheckedPkgs,
	} {
		if !scope.Match(pkg) {
			t.Errorf("%s no longer covers %s", name, pkg)
		}
	}
	if DeterministicPkgs.Match(pkg) {
		t.Errorf("strip/elect joined DeterministicPkgs; concurrency-in-sim would flag its network shell")
	}
}

// TestObsScopeCoverage pins the metrics package inside the lint
// coverage its contracts rest on: byte-identical exposition forbids
// map-order leaks, the registry's snapshot-under-lock discipline is
// lock-checked, and a scrape-time inversion against db.mu must surface
// as a lock-order cycle. It must NOT be in DeterministicPkgs — the
// atomics that make Observe lock-free are exactly what that scope
// forbids.
func TestObsScopeCoverage(t *testing.T) {
	const pkg = "repro/strip/obs"
	for name, scope := range map[string]Scope{
		"MapOrderPkgs":    MapOrderPkgs,
		"LockCheckedPkgs": LockCheckedPkgs,
		"LockOrderPkgs":   LockOrderPkgs,
	} {
		if !scope.Match(pkg) {
			t.Errorf("%s no longer covers %s", name, pkg)
		}
	}
	if DeterministicPkgs.Match(pkg) {
		t.Errorf("strip/obs joined DeterministicPkgs; concurrency-in-sim would flag its atomics")
	}
}
