package irlint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// methodDirective marks a deliberately non-exhaustive switch over
// temporalir.Method: place it on the switch or its default clause.
const methodDirective = "lint:method-ok"

// methodExhaustiveness requires every switch over
// temporalir.Method to handle all declared variants (or carry an
// annotated default). The variant universe is discovered from the
// declaring package's constants of type Method, so adding a ninth index
// method makes every dispatch site fail lint until it is handled — the
// property that keeps NewIndex, benchmark labels and future dispatchers
// in sync with the family.
func methodExhaustiveness() *Analyzer {
	const name = "method-exhaustiveness"
	return &Analyzer{
		name: name,
		run: func(p *Package) []Diagnostic {
			if p.info == nil {
				return nil
			}
			var out []Diagnostic
			for _, f := range p.files {
				file := f
				ast.Inspect(f, func(n ast.Node) bool {
					sw, ok := n.(*ast.SwitchStmt)
					if !ok || sw.Tag == nil {
						return true
					}
					named := p.methodType(sw.Tag)
					if named == nil {
						return true
					}
					out = append(out, p.checkMethodSwitch(file, sw, named)...)
					return true
				})
			}
			return out
		},
	}
}

// methodType returns the named type of tag if it is temporalir.Method.
func (p *Package) methodType(tag ast.Expr) *types.Named {
	tv, ok := p.info.Types[tag]
	if !ok || tv.Type == nil {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != modulePath || obj.Name() != "Method" {
		return nil
	}
	return named
}

// checkMethodSwitch compares the switch's cases against the constant
// universe of the Method type.
func (p *Package) checkMethodSwitch(f *ast.File, sw *ast.SwitchStmt, named *types.Named) []Diagnostic {
	const name = "method-exhaustiveness"
	universe := methodUniverse(named) // string value -> const name
	if len(universe) == 0 {
		return nil
	}
	covered := map[string]bool{}
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			tv, ok := p.info.Types[e]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				continue
			}
			covered[constant.StringVal(tv.Value)] = true
		}
	}
	var missing []string
	for val, constName := range universe {
		if !covered[val] {
			missing = append(missing, constName)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	if p.allowed(f, sw.Pos(), methodDirective) {
		return nil
	}
	if defaultClause != nil && p.allowed(f, defaultClause.Pos(), methodDirective) {
		return nil
	}
	return []Diagnostic{p.diag(name, sw.Pos(),
		"switch over temporalir.Method does not handle %s; handle every method or annotate the default with // %s <reason>",
		strings.Join(missing, ", "), methodDirective)}
}

// methodUniverse lists every constant of the Method type declared in its
// package, keyed by string value.
func methodUniverse(named *types.Named) map[string]string {
	universe := map[string]string{}
	pkg := named.Obj().Pkg()
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		c, ok := scope.Lookup(n).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if c.Val().Kind() == constant.String {
			universe[constant.StringVal(c.Val())] = c.Name()
		}
	}
	return universe
}
