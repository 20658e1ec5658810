package irlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapOrderDirective suppresses a map-order finding at sites where the
// caller establishes order by other means the analyzer cannot see.
const mapOrderDirective = "lint:map-order-ok"

// mapOrder flags `range` loops over maps whose bodies append to a
// slice declared outside the loop — the pattern that leaks Go's randomized
// map iteration order into ordered results (postings intersections assume
// sorted inputs; encoders and API responses assume stable output). A loop
// is exempt when a later statement in the same block visibly sorts the
// sink (a call whose name contains "Sort" referencing it), or when
// annotated with // lint:map-order-ok.
func mapOrder() *Analyzer {
	const name = "map-order"
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
					var body *ast.BlockStmt
					switch fn := n.(type) {
					case *ast.FuncDecl:
						body = fn.Body
					case *ast.FuncLit:
						body = fn.Body
					default:
						return true
					}
					if body != nil {
						out = append(out, p.mapOrderBlock(file, body.List)...)
					}
					return true
				})
			}
			return out
		},
	}
}

// mapOrderBlock scans a statement list (and nested blocks) for offending
// map ranges, with access to the statements that follow each loop so the
// sorted-afterwards exemption can be applied.
func (p *Package) mapOrderBlock(f *ast.File, stmts []ast.Stmt) []Diagnostic {
	const name = "map-order"
	var out []Diagnostic
	for i, s := range stmts {
		rs, ok := s.(*ast.RangeStmt)
		if ok && p.isMapRange(rs) {
			sinks := p.orderedSinks(rs)
			for _, sink := range sinks {
				if p.allowed(f, rs.Pos(), mapOrderDirective) {
					continue
				}
				if sortedAfter(stmts[i+1:], sink.name) {
					continue
				}
				out = append(out, p.diag(name, sink.pos,
					"append to %q inside range over map: iteration order leaks into an ordered sink; sort afterwards or annotate with // %s <reason>",
					sink.name, mapOrderDirective))
			}
		}
		// Recurse into every nested statement list.
		switch st := s.(type) {
		case *ast.BlockStmt:
			out = append(out, p.mapOrderBlock(f, st.List)...)
		case *ast.RangeStmt:
			out = append(out, p.mapOrderBlock(f, st.Body.List)...)
		case *ast.ForStmt:
			out = append(out, p.mapOrderBlock(f, st.Body.List)...)
		case *ast.IfStmt:
			out = append(out, p.mapOrderBlock(f, st.Body.List)...)
			if els, ok := st.Else.(*ast.BlockStmt); ok {
				out = append(out, p.mapOrderBlock(f, els.List)...)
			}
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					out = append(out, p.mapOrderBlock(f, cc.Body)...)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					out = append(out, p.mapOrderBlock(f, cc.Body)...)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					out = append(out, p.mapOrderBlock(f, cc.Body)...)
				}
			}
		case *ast.LabeledStmt:
			out = append(out, p.mapOrderBlock(f, []ast.Stmt{st.Stmt})...)
		}
	}
	return out
}

// isMapRange reports whether rs iterates a map.
func (p *Package) isMapRange(rs *ast.RangeStmt) bool {
	tv, ok := p.info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// sink is one ordered-output violation candidate: an append target
// declared outside the loop.
type sink struct {
	name string
	pos  token.Pos
}

// orderedSinks finds appends inside the range body whose target variable
// is declared outside the range statement.
func (p *Package) orderedSinks(rs *ast.RangeStmt) []sink {
	var out []sink
	seen := make(map[types.Object]bool)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" || len(call.Args) == 0 {
			return true
		}
		if obj := p.info.Uses[fn]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
				return true // shadowed append
			}
		}
		target, ok := call.Args[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.info.Uses[target]
		if obj == nil || seen[obj] {
			return true
		}
		// Declared outside the loop ⇒ the append order escapes it.
		if obj.Pos() < rs.Pos() || obj.Pos() > rs.End() {
			seen[obj] = true
			out = append(out, sink{name: target.Name, pos: call.Pos()})
		}
		return true
	})
	return out
}

// sortedAfter reports whether any following statement calls a sorting
// function (name containing "Sort") that references the sink variable as
// an argument or receiver.
func sortedAfter(rest []ast.Stmt, sinkName string) bool {
	for _, s := range rest {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return true
			}
			var fnName string
			var recv ast.Expr
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				fnName = fn.Name
			case *ast.SelectorExpr:
				if base, ok := fn.X.(*ast.Ident); ok {
					fnName = base.Name + "." + fn.Sel.Name
				} else {
					fnName = fn.Sel.Name
				}
				recv = fn.X
			default:
				return true
			}
			lower := strings.ToLower(fnName)
			if !strings.Contains(lower, "sort") && !strings.Contains(lower, "dedup") {
				return true
			}
			if exprMentions(recv, sinkName) {
				found = true
				return false
			}
			for _, a := range call.Args {
				if exprMentions(a, sinkName) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// exprMentions reports whether the identifier name occurs anywhere in e.
func exprMentions(e ast.Expr, name string) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return !found
	})
	return found
}
