// Package irlint is the repository's static-analysis suite. It enforces
// invariants the Go type system cannot express and that no test, race
// run or runtime assertion catches when they break: map iteration order
// never leaks into ordered results, size accounting covers every
// dynamically-sized index field, every switch over temporalir.Method
// stays exhaustive as the index family grows, trace spans end on every
// path, every go statement is provably joined, and obs metric families
// are well-formed and registered once. LINTING.md keeps, per analyzer,
// the finding or the planted bug that shows why it stays.
//
// The suite is stdlib-only (go/parser, go/ast, go/types). The
// cmd/irlint command runs it for `make lint`; TestLoadRepository runs it
// over the whole module in tier-1. Each analyzer has an escape hatch
// comment documented in LINTING.md.
package irlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// modulePath is the import path of the module this suite lints.
const modulePath = "repro"

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message.
type Diagnostic struct {
	pos      token.Position
	analyzer string
	message  string
}

// String formats the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.pos, d.analyzer, d.message)
}

// Package is one loaded, type-checked package presented to analyzers.
type Package struct {
	// path is the import path (e.g. "repro/internal/model").
	path string
	// fset positions every file in the package.
	fset *token.FileSet
	// files holds the parsed non-test sources.
	files []*ast.File
	// info carries type-checking results; analyzers must tolerate nil
	// entries for code that failed to check.
	info *types.Info
	// tpkg is the checked package object.
	tpkg *types.Package
	// directives caches per-file escape-hatch comment lines.
	directives map[*ast.File]map[int][]string
}

// Analyzer is one named invariant check. A per-package analyzer sets
// run; an analyzer that needs every loaded package at once (a family
// registered from two packages) sets program. Exactly one is set.
type Analyzer struct {
	name    string
	run     func(p *Package) []Diagnostic
	program func(pkgs []*Package) []Diagnostic
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		mapOrder(),
		sizeAccounting(),
		methodExhaustiveness(),
		spanEnd(),
		goroutineExit(),
		metricHygiene(),
	}
}

// Run applies every analyzer and returns the combined findings sorted
// by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.program != nil {
			out = append(out, a.program(pkgs)...)
			continue
		}
		for _, p := range pkgs {
			out = append(out, a.run(p)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		if out[i].pos.Line != out[j].pos.Line {
			return out[i].pos.Line < out[j].pos.Line
		}
		return out[i].analyzer < out[j].analyzer
	})
	return out
}

// diag builds a Diagnostic at the given node position.
func (p *Package) diag(name string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		pos:      p.fset.Position(pos),
		analyzer: name,
		message:  fmt.Sprintf(format, args...),
	}
}

// allowed reports whether an escape-hatch directive (e.g.
// "lint:map-order-ok") annotates the line of pos or the line directly
// above it — the two places a suppression comment may live.
func (p *Package) allowed(f *ast.File, pos token.Pos, directive string) bool {
	found, _ := p.directiveReason(f, pos, directive)
	return found
}

// directiveReason reports whether a directive annotates the line of pos
// or the line above, and returns the text following the directive (the
// stated reason, whitespace-trimmed). Annotations that require a
// rationale treat found-but-empty as a finding.
func (p *Package) directiveReason(f *ast.File, pos token.Pos, directive string) (found bool, reason string) {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]string)
	}
	lines, ok := p.directives[f]
	if !ok {
		lines = make(map[int][]string)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ln := p.fset.Position(c.Pos()).Line
				lines[ln] = append(lines[ln], c.Text)
			}
		}
		p.directives[f] = lines
	}
	ln := p.fset.Position(pos).Line
	for _, l := range []int{ln, ln - 1} {
		for _, text := range lines[l] {
			if i := strings.Index(text, directive); i >= 0 {
				rest := strings.TrimSuffix(strings.TrimSpace(text[i+len(directive):]), "*/")
				return true, strings.TrimSpace(rest)
			}
		}
	}
	return false, ""
}

// fileOf returns the *ast.File containing pos.
func (p *Package) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// relPath strips the module prefix: "repro/internal/model" -> "internal/model",
// "repro" -> ".".
func relPath(importPath string) string {
	if importPath == modulePath {
		return "."
	}
	return strings.TrimPrefix(importPath, modulePath+"/")
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
