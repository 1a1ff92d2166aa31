package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestScopeMatch(t *testing.T) {
	s := Scope{"internal/sim", "internal/stats"}
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/sim", true},
		{"internal/sim", true},
		{"repro/internal/lint/testdata/x/internal/sim", true},
		{"repro/internal/simx", false},
		{"repro/xinternal/sim", false},
		{"repro/strip", false},
		{"repro/internal/stats", true},
	}
	for _, c := range cases {
		if got := s.Match(c.path); got != c.want {
			t.Errorf("Match(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 9 {
		t.Fatalf("Select(nil) returned %d rules, want 9", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("analyzers out of order: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
	one, err := Select([]string{"float-eq"})
	if err != nil || len(one) != 1 || one[0].Name != "float-eq" {
		t.Fatalf("Select(float-eq) = %v, %v", one, err)
	}
	for _, name := range append([]string{"no-such-rule", retiredAllocRule}, foldedRules...) {
		if _, err := Select([]string{name}); err == nil {
			t.Fatalf("Select(%s) succeeded, want error", name)
		}
	}
}

// retiredAllocRule is the name of the allocation rule PR 21 deleted in
// favour of AllocsPerRun pins (DESIGN §9): Select rejects it and a
// suppression left behind for it is a hard "unknown rule" finding, so
// the shipped tree (TestShippedTreeClean) cannot carry one. It is
// spelled in two halves so that a grep for the name over the tree finds
// only the history.
const retiredAllocRule = "alloc-in-" + "hotpath"

// foldedRules are the rules the second half of the audit removed
// (DESIGN §9): the wall-clock and global-rand checks live on in
// nondeterminism-taint, the goroutine-capture check in
// lock-guarded-field, and block-under-lock is retired. Their names
// are unknown rules now.
var foldedRules = []string{"nondeterministic-time", "global-rand", "lock-goroutine-capture", "block-under-lock"}

// buildIndex parses one source string and runs the suppression
// scanner over it; the ignore layer needs no type information.
func buildIndex(t *testing.T, src string) (*ignoreIndex, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return buildIgnoreIndex(fset, []*ast.File{f})
}

func TestIgnoreSameLineAndNextLine(t *testing.T) {
	idx, bad := buildIndex(t, `package p

func f() {
	_ = 1 //striplint:ignore float-eq -- trailing form covers its own line
	//striplint:ignore nondeterminism-taint -- standalone form covers the next line
	_ = 2
}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed-directive diagnostics: %v", bad)
	}
	cases := []struct {
		line int
		rule string
		want bool
	}{
		{4, "float-eq", true},
		{4, "nondeterminism-taint", false},
		{5, "nondeterminism-taint", true}, // the directive's own line
		{6, "nondeterminism-taint", true}, // the line below a standalone directive
		{7, "nondeterminism-taint", false},
		{6, "float-eq", false},
	}
	for _, c := range cases {
		d := Diagnostic{File: "fix.go", Line: c.line, Rule: c.rule}
		if got := idx.suppresses(d); got != c.want {
			t.Errorf("suppresses(line %d, %s) = %v, want %v", c.line, c.rule, got, c.want)
		}
	}
}

func TestIgnoreAllAndLists(t *testing.T) {
	idx, bad := buildIndex(t, `package p

func f() {
	_ = 1 //striplint:ignore all -- broad waiver with a reason
	_ = 2 //striplint:ignore float-eq,map-order-leak -- two rules, one reason
}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed-directive diagnostics: %v", bad)
	}
	for _, rule := range []string{"float-eq", "nondeterminism-taint", "concurrency-in-sim"} {
		if !idx.suppresses(Diagnostic{File: "fix.go", Line: 4, Rule: rule}) {
			t.Errorf("ignore all did not suppress %s", rule)
		}
	}
	if !idx.suppresses(Diagnostic{File: "fix.go", Line: 5, Rule: "map-order-leak"}) {
		t.Error("comma list did not suppress map-order-leak")
	}
	if idx.suppresses(Diagnostic{File: "fix.go", Line: 5, Rule: "nondeterminism-taint"}) {
		t.Error("comma list suppressed a rule it does not name")
	}
}

func TestIgnoreMalformed(t *testing.T) {
	_, bad := buildIndex(t, `package p

//striplint:ignore
func a() {}

//striplint:ignore float-eq
func b() {}

//striplint:ignore not-a-rule -- because reasons
func c() {}

//striplint:ignore float-eq a reason in the pre-v3 syntax, no separator
func d() {}

//striplint:ignore -- a reason but no rule
func e() {}

//striplint:ignore `+retiredAllocRule+` -- the update outlives the call
func f() {}

//striplint:ignore block-under-lock -- the fsync holds the lock by design
func g() {}
`)
	if len(bad) != 7 {
		t.Fatalf("got %d malformed-directive diagnostics, want 7: %v", len(bad), bad)
	}
	wants := []string{"missing rule name", "missing reason", "unknown rule", "missing reason", "missing rule name", "unknown rule", "unknown rule"}
	for i, w := range wants {
		if bad[i].Rule != "striplint" {
			t.Errorf("diagnostic %d rule = %q, want striplint", i, bad[i].Rule)
		}
		if !strings.Contains(bad[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, bad[i].Message, w)
		}
	}
}

func TestIgnoreDoesNotMatchLookalikes(t *testing.T) {
	idx, bad := buildIndex(t, `package p

func f() {
	_ = 1 //striplint:ignoreXXX float-eq not a directive at all
	_ = 2 // striplint:ignore float-eq spaced marker is prose, not a directive
}
`)
	if len(bad) != 0 {
		t.Fatalf("lookalike comments reported as malformed: %v", bad)
	}
	for _, line := range []int{4, 5} {
		if idx.suppresses(Diagnostic{File: "fix.go", Line: line, Rule: "float-eq"}) {
			t.Errorf("lookalike comment on line %d suppressed a diagnostic", line)
		}
	}
}

func TestIgnoreBlockCommentIsNotADirective(t *testing.T) {
	idx, bad := buildIndex(t, `package p

/*striplint:ignore float-eq block comments are prose, not directives*/
func a() {}

func f() {
	_ = 1 /* striplint:ignore float-eq same inline */
}
`)
	if len(bad) != 0 {
		t.Fatalf("block comments reported as malformed: %v", bad)
	}
	for _, line := range []int{3, 4, 7} {
		if idx.suppresses(Diagnostic{File: "fix.go", Line: line, Rule: "float-eq"}) {
			t.Errorf("block comment on/above line %d suppressed a diagnostic", line)
		}
	}
}

func TestIgnoreWrongLineDoesNotSuppress(t *testing.T) {
	idx, bad := buildIndex(t, `package p

func f() {
	//striplint:ignore float-eq -- directive two lines above the finding

	_ = 1
	_ = 2 //striplint:ignore float-eq -- trailing directive on the previous line
	_ = 3
}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed-directive diagnostics: %v", bad)
	}
	// The standalone form covers its own line and the next — not the
	// line after a blank, and a trailing directive never covers the
	// following line.
	for _, line := range []int{6, 8} {
		if idx.suppresses(Diagnostic{File: "fix.go", Line: line, Rule: "float-eq"}) {
			t.Errorf("directive on the wrong line suppressed line %d", line)
		}
	}
}

func TestUnusedIgnoreReporting(t *testing.T) {
	idx, bad := buildIndex(t, `package p

func f() {
	_ = 1 //striplint:ignore float-eq,nondeterminism-taint -- one used, whole directive counts
	_ = 2 //striplint:ignore map-order-leak -- never matches anything
}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed-directive diagnostics: %v", bad)
	}
	if !idx.suppresses(Diagnostic{File: "fix.go", Line: 4, Rule: "float-eq"}) {
		t.Fatal("directive failed to suppress its own rule")
	}
	unused := idx.unused()
	if len(unused) != 1 {
		t.Fatalf("got %d unused-ignore diagnostics, want 1: %v", len(unused), unused)
	}
	d := unused[0]
	if d.Rule != UnusedIgnore.Name || d.Line != 5 {
		t.Errorf("unused diagnostic = %s, want unused-ignore at line 5", d)
	}
	if !strings.Contains(d.Message, "map-order-leak") || !strings.Contains(d.Message, "suppresses nothing") {
		t.Errorf("unused diagnostic message = %q, want the rule list and 'suppresses nothing'", d.Message)
	}
	// A second run that uses the directive clears it.
	if !idx.suppresses(Diagnostic{File: "fix.go", Line: 5, Rule: "map-order-leak"}) {
		t.Fatal("directive failed to suppress map-order-leak")
	}
	if left := idx.unused(); len(left) != 0 {
		t.Errorf("directive still reported unused after suppressing: %v", left)
	}
}

func TestUnusedIgnoreMultiRuleDirective(t *testing.T) {
	// One directive naming several rules is used as soon as any of
	// them fires; it is reported only when none do.
	idx, bad := buildIndex(t, `package p

func f() {
	_ = 1 //striplint:ignore float-eq,map-order-leak,nondeterminism-taint -- broad but unused
}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed-directive diagnostics: %v", bad)
	}
	if got := idx.unused(); len(got) != 1 {
		t.Fatalf("got %d unused diagnostics, want 1: %v", len(got), got)
	}
	idx.suppresses(Diagnostic{File: "fix.go", Line: 4, Rule: "nondeterminism-taint"})
	if got := idx.unused(); len(got) != 0 {
		t.Errorf("multi-rule directive still unused after one rule fired: %v", got)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 3, Column: 9, Rule: "float-eq", Message: "m"}
	if got, want := d.String(), "a/b.go:3:9: float-eq: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestLoaderRejectsOutsideModule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.importPathFor("/"); err == nil {
		t.Fatal("importPathFor(/) succeeded, want error")
	}
}

func TestLoaderModulePath(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if loader.module != "repro" {
		t.Fatalf("module path = %q, want repro", loader.module)
	}
	path, err := loader.importPathFor(loader.root + "/internal/sim")
	if err != nil || path != "repro/internal/sim" {
		t.Fatalf("importPathFor(internal/sim) = %q, %v", path, err)
	}
}
