package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fixture is a known-dirty tree: the concurrency-in-sim golden
// fixture, reached relative to this package directory.
const fixture = "../../internal/lint/testdata/concurrency-in-sim/..."

func TestRunCleanTree(t *testing.T) {
	var out, errb bytes.Buffer
	// The repository itself must be clean — the same acceptance gate
	// as `go run ./cmd/striplint ./...` in CI.
	if code := run([]string{"../../..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on shipped tree, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("diagnostics on the shipped tree:\n%s", out.String())
	}
}

func TestRunDirtyFixtureExitsNonzero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{fixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d on dirty fixture, want 1\nstderr: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"concurrency-in-sim", "go statement", "channel send", "fixture.go:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Diagnostics must carry file:line:col positions.
	if !strings.Contains(text, "fixture.go:8:") && !strings.Contains(text, "fixture.go:9:") {
		t.Errorf("output has no positioned diagnostic:\n%s", text)
	}
}

func TestRunJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", fixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []map[string]any
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("JSON output is empty, want diagnostics")
	}
	for _, key := range []string{"file", "line", "column", "rule", "message"} {
		if _, ok := diags[0][key]; !ok {
			t.Errorf("JSON diagnostic missing %q: %v", key, diags[0])
		}
	}
}

func TestRunRuleSelection(t *testing.T) {
	var out, errb bytes.Buffer
	// Only float-eq selected: the concurrency fixture must pass.
	if code := run([]string{"-rules", "float-eq", fixture}, &out, &errb); code != 0 {
		t.Fatalf("exit %d with non-matching rule, want 0\n%s", code, out.String())
	}
	if code := run([]string{"-rules", "no-such-rule", fixture}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for unknown rule, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d for -list, want 0", code)
	}
	for _, rule := range []string{
		"concurrency-in-sim", "float-eq", "lock-guarded-field",
		"map-order-leak", "nondeterminism-taint",
	} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list missing rule %q:\n%s", rule, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 9 {
		t.Errorf("-list printed %d rules, want 9:\n%s", n, out.String())
	}
}

// taintFixture hides nondeterminism sources behind helper functions;
// see internal/lint/testdata/nondeterminism-taint.
const taintFixture = "../../internal/lint/testdata/nondeterminism-taint/..."

func TestRunChainNotes(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-rules", "nondeterminism-taint", taintFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d on taint fixture, want 1\nstderr: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"transitively reaches time.Now",
		"\ttick.Wrapped calls tick.deep at ",
		"\ttick.deep touches time.Now (wall clock) at ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing chain line %q:\n%s", want, text)
		}
	}
}

func TestRunChainNotesJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-rules", "nondeterminism-taint", taintFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []map[string]any
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	withNotes := 0
	for _, d := range diags {
		if notes, ok := d["notes"].([]any); ok && len(notes) > 0 {
			withNotes++
		}
	}
	if withNotes == 0 {
		t.Fatalf("no JSON diagnostic carries notes: %v", diags)
	}
}

func TestRunScopeOverride(t *testing.T) {
	clockDir := "../../internal/lint/testdata/nondeterminism-taint/wallclock/clock"
	var out, errb bytes.Buffer
	// By default the helper package is out of the deterministic scope,
	// so the direct time.Now inside it passes.
	if code := run([]string{"-rules", "nondeterminism-taint", clockDir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d without -scope, want 0\n%s", code, out.String())
	}
	// Pulling it into scope flags the wall-clock read directly.
	out.Reset()
	errb.Reset()
	code := run([]string{"-scope", "wallclock/clock", "-rules", "nondeterminism-taint", clockDir}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d with -scope, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "time.Now") {
		t.Errorf("scoped run missing the time.Now finding:\n%s", out.String())
	}
}

func TestRunBadPattern(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"/no/such/dir"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for missing dir, want 2", code)
	}
	if errb.Len() == 0 {
		t.Error("no error message for missing dir")
	}
}
