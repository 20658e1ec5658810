package irlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroutineExitsDirective marks a go statement whose termination is
// guaranteed by something the analyzer cannot see (process lifetime, a
// listener's Close). The annotation must state the exit condition.
const goroutineExitsDirective = "irlint:goroutine-exits"

// goroutineExit requires every `go` statement to be provably joined or
// annotated. Accepted proofs, all within the innermost enclosing
// function body:
//
//   - WaitGroup: the spawned function literal calls Done on a WaitGroup
//     (directly or deferred), and the spawning body Waits on the same
//     WaitGroup after the go statement (or in a defer).
//   - Channel join: the literal sends on or closes a channel, and the
//     spawning body unconditionally receives from (or ranges over) the
//     same channel after the go statement. A receive inside a select
//     does not count — the other arms may abandon the goroutine.
//
// Everything else, a `go f(x)` of a named function included, needs
// `irlint:goroutine-exits <exit condition>`. A goroutine left blocked
// races with nothing, so -race never reports it and no test fails: this
// check is the only gate that sees the leak.
func goroutineExit() *Analyzer {
	const name = "goroutine-exit"
	return &Analyzer{
		name: name,
		run: func(p *Package) []Diagnostic {
			var out []Diagnostic
			for _, f := range p.files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					walkGoStmts(fd.Body, fd.Body, func(gs *ast.GoStmt, body *ast.BlockStmt) {
						if goStmtJoined(p.info, gs, body) {
							return
						}
						if ok, reason := p.directiveReason(f, gs.Pos(), goroutineExitsDirective); ok {
							if reason == "" {
								out = append(out, p.diag(name, gs.Pos(),
									"%s annotation needs a stated exit condition", goroutineExitsDirective))
							}
							return
						}
						out = append(out, p.diag(name, gs.Pos(),
							"goroutine has no provable join in the spawning function (no WaitGroup Done/Wait pair, no unconditional channel receive); prove the join or annotate with // %s <exit condition>",
							goroutineExitsDirective))
					})
				}
			}
			return out
		},
	}
}

// walkGoStmts visits every go statement under n, reporting each with its
// innermost enclosing function body — the scope a join proof must live
// in. Go statements inside nested function literals are checked against
// the literal's body, not the outer declaration's.
func walkGoStmts(n ast.Node, body *ast.BlockStmt, visit func(*ast.GoStmt, *ast.BlockStmt)) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch x := c.(type) {
		case *ast.FuncLit:
			if x.Body != nil {
				walkGoStmts(x.Body, x.Body, visit)
			}
			return false
		case *ast.GoStmt:
			visit(x, body)
			// The goroutine's own body may spawn more goroutines; those
			// need proofs inside the goroutine.
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok && lit.Body != nil {
				walkGoStmts(lit.Body, lit.Body, visit)
			}
			return false
		}
		return true
	})
}

// goStmtJoined reports whether the goroutine spawned by gs is provably
// joined inside body.
func goStmtJoined(info *types.Info, gs *ast.GoStmt, body *ast.BlockStmt) bool {
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok || lit.Body == nil {
		return false
	}
	// The WaitGroups the goroutine calls Done on and the channels it
	// sends on or closes.
	doneVars := map[*types.Var]bool{}
	chanVars := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if wg := waitGroupCall(info, x, "Done"); wg != nil {
				doneVars[wg] = true
			}
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					if v := baseVar(info, x.Args[0]); v != nil {
						chanVars[v] = true
					}
				}
			}
		case *ast.SendStmt:
			if v := baseVar(info, x.Chan); v != nil {
				chanVars[v] = true
			}
		}
		return true
	})
	if len(doneVars) == 0 && len(chanVars) == 0 {
		return false
	}
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			// Neither this goroutine's own body nor a sibling goroutine's
			// body counts as a join point for the spawning function.
			return false
		case *ast.SelectStmt:
			// A receive inside select is conditional: another arm (e.g.
			// ctx.Done()) may fire and abandon the goroutine.
			return false
		case *ast.CallExpr:
			if wg := waitGroupCall(info, x, "Wait"); wg != nil && doneVars[wg] && afterOrDeferred(body, gs, x.Pos()) {
				joined = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && chanVars[baseVar(info, x.X)] && afterOrDeferred(body, gs, x.Pos()) {
				joined = true
			}
		case *ast.RangeStmt:
			// for range ch drains until close — an unconditional join.
			if chanVars[baseVar(info, x.X)] && afterOrDeferred(body, gs, x.Pos()) {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

// waitGroupCall returns the WaitGroup variable when call is wg.<method>()
// on a sync.WaitGroup, else nil.
func waitGroupCall(info *types.Info, call *ast.CallExpr, method string) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method || !typeIs(info.Types[sel.X].Type, "sync", "WaitGroup") {
		return nil
	}
	return baseVar(info, sel.X)
}

// baseVar resolves the variable at the base of an expression — peeling
// selectors, indexing, dereferences, address-taking and parentheses —
// or nil: the variable through which the expression's memory is
// reached, so baseVar(&s.wg) is s.
func baseVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			v, _ := obj.(*types.Var)
			return v
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// afterOrDeferred reports whether pos is textually after the go
// statement, or inside any defer in the body (defers run at exit, which
// is always after the spawn).
func afterOrDeferred(body *ast.BlockStmt, gs *ast.GoStmt, pos token.Pos) bool {
	if pos > gs.End() {
		return true
	}
	inDefer := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Pos() <= pos && pos <= d.End() {
			inDefer = true
		}
		return !inDefer
	})
	return inDefer
}
