// Command irlint runs the repository's static-analysis suite — the
// repo-specific invariants described in LINTING.md — over the module's
// packages and reports violations with file:line:col positions.
//
// Usage:
//
//	irlint [-only analyzer[,analyzer...]] [-list] [pattern ...]
//
// Patterns follow the go tool's form: "./..." (default) for every
// package, "./internal/..." for a subtree, "./internal/model" for one
// package. The exit status is 0 when clean, 1 when findings were
// reported, and 2 when loading failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/tools/irlint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	analyzers := irlint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*irlint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for n := range keep {
			fmt.Fprintf(os.Stderr, "irlint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	pkgs, err := irlint.Load(".", patterns)
	if err != nil {
		// Load problems make the typed analyzers unsound, so they gate
		// just like findings do; partial results are still printed.
		fmt.Fprintln(os.Stderr, err)
		if pkgs == nil {
			os.Exit(2)
		}
		defer os.Exit(2)
	}

	diags := irlint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "irlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
