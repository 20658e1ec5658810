// Command irlint runs the repository's static-analysis suite — the
// repo-specific invariants described in LINTING.md — over the module's
// packages and reports violations with file:line:col positions.
//
// Usage:
//
//	irlint [pattern ...]
//
// Patterns follow the go tool's form: "./..." (default) for every
// package, "./internal/..." for a subtree, "./internal/model" for one
// package. The exit status is 0 when clean, 1 when findings were
// reported, and 2 when loading failed.
package main

import (
	"fmt"
	"os"

	"repro/internal/tools/irlint"
)

func main() {
	pkgs, err := irlint.Load(".", os.Args[1:])
	if err != nil {
		// Load problems make the typed analyzers unsound, so they gate
		// just like findings do; partial results are still printed.
		fmt.Fprintln(os.Stderr, err)
		if pkgs == nil {
			os.Exit(2)
		}
		defer os.Exit(2)
	}

	diags := irlint.Run(pkgs, irlint.Analyzers())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "irlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
