// Package irlint is the repository's static-analysis suite. It enforces
// invariants the Go type system cannot express but the paper's algorithms
// rely on: intervals are built through canonicalizing constructors, map
// iteration order never leaks into ordered results, panics stay confined
// to documented precondition sites, size accounting covers every
// dynamically-sized index field, and the public surface stays documented.
//
// The type/dataflow-aware half of the suite guards the concurrency and
// sharing contracts: mutex-guarded Engine fields are only touched under
// their lock (lock-guard), postings lists aliased out of internal/tif and
// internal/postings stay read-only (alias-mutation), arithmetic on
// discretized domain values cannot leave [0, 2^m-1] unreviewed
// (domain-bounds), and every switch over temporalir.Method stays
// exhaustive as the index family grows (method-exhaustiveness).
//
// The whole-program (v3) half runs over every loaded package at once on
// the flow substrate (internal/tools/irlint/flow: static call graph +
// per-input effect summaries): contexts thread edge-to-edge with
// annotated roots only (ctx-flow), every go statement is provably joined
// or annotated with its exit condition (goroutine-exit), values stay
// frozen after atomic publication (publish-freeze), and obs metric
// families are constant-named, well-formed, and registered exactly once
// with monotonic histogram buckets (metric-hygiene).
//
// The suite is stdlib-only (go/parser, go/ast, go/types); the cmd/irlint
// driver wires it into `make lint` and CI. Each analyzer has an escape
// hatch comment documented in LINTING.md.
package irlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import path of the module this suite lints.
const ModulePath = "repro"

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package presented to analyzers.
type Package struct {
	// Path is the import path (e.g. "repro/internal/model").
	Path string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files holds the parsed non-test sources.
	Files []*ast.File
	// Info carries type-checking results; analyzers must tolerate nil
	// entries for code that failed to check.
	Info *types.Info
	// Types is the checked package object.
	Types *types.Package
	// directives caches per-file escape-hatch comment lines.
	directives map[*ast.File]map[int][]string
}

// Analyzer is one named invariant check. Per-package analyzers set Run;
// whole-program (dataflow) analyzers set RunProgram and receive every
// loaded package at once plus the shared flow graph. Exactly one of the
// two must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and LINTING.md.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run reports every violation found in the package.
	Run func(p *Package) []Diagnostic
	// RunProgram reports every violation found across the whole program.
	RunProgram func(pr *Program) []Diagnostic
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerIntervalCanon(),
		AnalyzerMapOrder(),
		AnalyzerPanicPolicy(),
		AnalyzerSizeAccounting(),
		AnalyzerDocExported(),
		AnalyzerLockGuard(),
		AnalyzerAliasMutation(),
		AnalyzerDomainBounds(),
		AnalyzerMethodExhaustiveness(),
		AnalyzerSpanEnd(),
		AnalyzerCtxFlow(),
		AnalyzerGoroutineExit(),
		AnalyzerPublishFreeze(),
		AnalyzerMetricHygiene(),
	}
}

// Run applies every analyzer — per-package and whole-program — and
// returns the combined findings sorted by position. All whole-program
// analyzers share one Program, so the flow graph and its summaries are
// built at most once.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	pr := NewProgram(pkgs)
	var out []Diagnostic
	for _, p := range pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				out = append(out, a.Run(p)...)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram != nil {
			out = append(out, a.RunProgram(pr)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// diag builds a Diagnostic at the given node position.
func (p *Package) diag(name string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: name,
		Message:  fmt.Sprintf(format, args...),
	}
}

// allowed reports whether an escape-hatch directive (e.g. "lint:panic-ok")
// annotates the line of pos or the line directly above it — the two places
// a suppression comment may live.
func (p *Package) allowed(f *ast.File, pos token.Pos, directive string) bool {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]string)
	}
	lines, ok := p.directives[f]
	if !ok {
		lines = make(map[int][]string)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ln := p.Fset.Position(c.Pos()).Line
				lines[ln] = append(lines[ln], c.Text)
			}
		}
		p.directives[f] = lines
	}
	ln := p.Fset.Position(pos).Line
	for _, l := range []int{ln, ln - 1} {
		for _, text := range lines[l] {
			if strings.Contains(text, directive) {
				return true
			}
		}
	}
	return false
}

// fileOf returns the *ast.File containing pos.
func (p *Package) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// relPath strips the module prefix: "repro/internal/model" -> "internal/model",
// "repro" -> ".".
func relPath(importPath string) string {
	if importPath == ModulePath {
		return "."
	}
	return strings.TrimPrefix(importPath, ModulePath+"/")
}

// typeIs reports whether t (after unwrapping pointers) is the named type
// pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
