package irlint

import (
	"go/ast"
)

// spanDirective suppresses a span-end finding, for a call site that
// provably closes its span on every path without the defer form.
const spanDirective = "lint:span-ok"

// obsPath is the package that owns Trace and StageTimer.
const obsPath = modulePath + "/internal/obs"

// spanEnd flags obs.Trace.StartStage calls that are not the
// one-line deferred form `defer tr.StartStage(s).End()`. A StageTimer
// whose End is reached by straight-line code leaks the span on every
// early return and panic between StartStage and End — the trace then
// under-reports the stage and the slow log shows a breakdown that does
// not sum. The defer form is the only shape that closes the span on all
// paths, so it is the only accepted one.
func spanEnd() *Analyzer {
	const name = "span-end"
	return &Analyzer{
		name: name,
		run: func(p *Package) []Diagnostic {
			if p.info == nil {
				return nil
			}
			var out []Diagnostic
			for _, f := range p.files {
				// First pass: collect the StartStage calls that appear as
				// `defer <expr>.StartStage(s).End()` — the conforming shape.
				deferred := map[*ast.CallExpr]bool{}
				ast.Inspect(f, func(n ast.Node) bool {
					d, ok := n.(*ast.DeferStmt)
					if !ok {
						return true
					}
					endSel, ok := d.Call.Fun.(*ast.SelectorExpr)
					if !ok || endSel.Sel.Name != "End" {
						return true
					}
					if call, ok := endSel.X.(*ast.CallExpr); ok && p.isStartStage(call) {
						deferred[call] = true
					}
					return true
				})
				// Second pass: flag every other StartStage call.
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !p.isStartStage(call) || deferred[call] {
						return true
					}
					if p.allowed(f, call.Pos(), spanDirective) {
						return true
					}
					out = append(out, p.diag(name, call.Pos(),
						"StartStage span not closed by an immediate defer; write `defer tr.StartStage(s).End()` so the span ends on every path (or annotate with // %s <reason>)",
						spanDirective))
					return true
				})
			}
			return out
		},
	}
}

// isStartStage reports whether call is obs.Trace.StartStage (on *Trace
// or Trace, including nil receivers — the method is nil-safe but the
// defer contract applies regardless).
func (p *Package) isStartStage(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StartStage" {
		return false
	}
	tv, ok := p.info.Types[sel.X]
	if !ok {
		return false
	}
	return typeIs(tv.Type, obsPath, "Trace")
}
