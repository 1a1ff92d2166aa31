// Command striplint runs the repo-specific determinism and locking
// lint rules over the module (see internal/lint; -list prints the nine
// rules). It is stdlib-only and wired into `make lint` and CI:
//
//	go run ./cmd/striplint ./...
//
// Exit status is 0 when the tree is clean, 1 when any diagnostic is
// reported, 2 on usage or load errors. Individual findings can be
// suppressed with a
//
//	//striplint:ignore <rule>[,<rule>...] -- <reason>
//
// comment on the offending line or the line directly above it.
//
// The -lockgraph mode skips linting and instead dumps the module-wide
// lock-acquisition-order graph in DOT form (mutex identities as nodes,
// "acquired while held" edges labelled with their witness call sites,
// deadlock cycles in red) for review alongside the lock-order rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("striplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated rule names to run (default: all)")
	scope := fs.String("scope", "", "comma-separated package path suffixes overriding the deterministic scope, where\nconcurrency-in-sim and nondeterminism-taint report (default: the simulator\npackages, plus strip/elect for nondeterminism-taint; global draws from\nmath/rand are reported everywhere)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	list := fs.Bool("list", false, "list available rules and exit")
	lockgraph := fs.Bool("lockgraph", false, "dump the lock-acquisition-order graph as DOT and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: striplint [flags] [packages]\n\n"+
			"Packages are directories, optionally ending in /... for a subtree\n"+
			"(default ./...). Flags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var names []string
	if *rules != "" {
		for _, n := range strings.Split(*rules, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	analyzers, err := lint.Select(names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// The interprocedural rules trace call chains through every module
	// package the loader touched, including dependency-only ones.
	opts := &lint.Options{Modules: loader.All()}
	if *scope != "" {
		var s lint.Scope
		for _, e := range strings.Split(*scope, ",") {
			if e = strings.TrimSpace(e); e != "" {
				s = append(s, e)
			}
		}
		opts.Deterministic, opts.Taint = s, s
	}

	if *lockgraph {
		facts := lint.BuildFacts(loader.All(), opts)
		fmt.Fprint(stdout, facts.LockGraphDOT())
		return 0
	}

	diags := lint.RunAnalyzers(pkgs, analyzers, opts)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
			// Chain notes (interprocedural rules) print indented under
			// the finding, one hop per line.
			for _, note := range d.Notes {
				fmt.Fprintf(stdout, "\t%s\n", note)
			}
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "striplint: %d finding(s) in %d package(s) checked\n", len(diags), len(pkgs))
		}
		return 1
	}
	return 0
}
