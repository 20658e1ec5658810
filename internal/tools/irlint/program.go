package irlint

import "repro/internal/tools/irlint/flow"

// Program is the whole-program view the v3 analyzers run over: every
// loaded package plus a lazily built flow graph (call edges, reachability,
// input summaries) shared by all of them. Per-package analyzers never see
// a Program; whole-program analyzers receive exactly one per Run call, so
// the graph and its fixpoint summaries are computed at most once per lint
// invocation.
type Program struct {
	// Pkgs lists every loaded package in load order.
	Pkgs []*Package

	graph *flow.Graph
}

// NewProgram wraps a set of loaded packages. The flow graph is not built
// until Graph is first called.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs}
}

// Graph returns the program's call graph, building it on first use.
func (pr *Program) Graph() *flow.Graph {
	if pr.graph == nil {
		units := make([]*flow.Unit, 0, len(pr.Pkgs))
		for _, p := range pr.Pkgs {
			units = append(units, &flow.Unit{
				Path:  p.Path,
				Fset:  p.Fset,
				Files: p.Files,
				Info:  p.Info,
				Pkg:   p.Types,
			})
		}
		pr.graph = flow.Build(units)
	}
	return pr.graph
}

// PackageOf returns the loaded package a graph function was declared in,
// matching by import path.
func (pr *Program) PackageOf(fn *flow.Func) *Package {
	for _, p := range pr.Pkgs {
		if p.Path == fn.Unit.Path {
			return p
		}
	}
	return nil
}
