package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// InputSummary records what a function may do to one of its inputs
// (receiver or parameter), or to memory reachable from it, directly or
// through further calls. Summaries over-approximate: "may", not "must".
type InputSummary struct {
	// Mutates: the function may write a field, element or pointee
	// reachable from the input (assignment, copy-into, append-into, or
	// passing it to a mutating input of another function).
	Mutates bool
	// Publishes: the function may store the input into an
	// sync/atomic.Pointer or atomic.Value, directly or as an element or
	// field of a local it then stores there — after which the
	// publish-freeze contract applies to the value.
	Publishes bool
	// Waits: the function may call Wait on the input (a sync.WaitGroup
	// join point).
	Waits bool
	// Dones: the function may call Done on the input (a sync.WaitGroup
	// completion mark, typically deferred by a worker body).
	Dones bool
}

func (a InputSummary) or(b InputSummary) InputSummary {
	return InputSummary{
		Mutates:   a.Mutates || b.Mutates,
		Publishes: a.Publishes || b.Publishes,
		Waits:     a.Waits || b.Waits,
		Dones:     a.Dones || b.Dones,
	}
}

// Summaries holds the per-function input summaries for a graph,
// computed as a fixpoint: effects propagate from callee inputs to the
// caller arguments that flow into them, until nothing changes. Unknown
// callees (no body in the program) are assumed effect-free except for
// the recognized sync/atomic and sync.WaitGroup methods — a documented
// soundness limit, not an accident.
type Summaries struct {
	g      *Graph
	byFunc map[*types.Func][]InputSummary
}

// Summaries computes (once) and returns the graph's input summaries.
func (g *Graph) Summaries() *Summaries {
	if g.summaries != nil {
		return g.summaries
	}
	s := &Summaries{g: g, byFunc: make(map[*types.Func][]InputSummary)}
	for _, fn := range g.order {
		s.byFunc[fn.Obj] = make([]InputSummary, len(Inputs(fn.Obj)))
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.order {
			if s.update(fn) {
				changed = true
			}
		}
	}
	g.summaries = s
	return s
}

// Input returns the summary of a function's i-th input (receiver first
// when present). The zero summary covers out-of-range queries and
// functions outside the program.
func (s *Summaries) Input(obj *types.Func, i int) InputSummary {
	row := s.byFunc[obj]
	if i < 0 || i >= len(row) {
		return InputSummary{}
	}
	return row[i]
}

// update recomputes one function's summary row in place and reports
// whether any bit turned on.
func (s *Summaries) update(fn *Func) bool {
	row := s.byFunc[fn.Obj]
	inputs := Inputs(fn.Obj)
	idx := make(map[*types.Var]int, len(inputs))
	for i, v := range inputs {
		idx[v] = i
	}
	aliases := fn.aliasMap(idx)
	inputOf := func(e ast.Expr) int {
		v := BaseVar(fn.Unit.Info, e)
		if v == nil {
			return -1
		}
		if i, ok := aliases[v]; ok {
			return i
		}
		return -1
	}

	// held maps a local to the inputs stored into its elements or fields
	// (x[k] = in, x.f = in): publishing the local publishes them too.
	held := map[*types.Var][]int{}

	changed := false
	mark := func(i int, eff InputSummary) {
		if i < 0 || i >= len(row) {
			return
		}
		next := row[i].or(eff)
		if next != row[i] {
			row[i] = next
			changed = true
		}
	}

	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for k, lhs := range st.Lhs {
				if !WritesThrough(lhs) {
					continue
				}
				mark(inputOf(lhs), InputSummary{Mutates: true})
				if c := BaseVar(fn.Unit.Info, lhs); c != nil && inputOf(lhs) < 0 && len(st.Lhs) == len(st.Rhs) {
					if i := inputOf(st.Rhs[k]); i >= 0 {
						held[c] = append(held[c], i)
					}
				}
			}
			// x = append(y, ...) may write into y's shared backing array.
			for _, rhs := range st.Rhs {
				if call, ok := unparen(rhs).(*ast.CallExpr); ok && IsBuiltin(fn.Unit.Info, call, "append") && len(call.Args) > 0 {
					mark(inputOf(call.Args[0]), InputSummary{Mutates: true})
				}
			}
		case *ast.IncDecStmt:
			if WritesThrough(st.X) {
				mark(inputOf(st.X), InputSummary{Mutates: true})
			}
		case *ast.CallExpr:
			s.applyCall(fn, st, inputOf, held, mark)
		}
		return true
	})
	return changed
}

// applyCall folds one call site's effects into the caller's summary row;
// held is update's map of locals to the inputs stored into them.
func (s *Summaries) applyCall(fn *Func, call *ast.CallExpr, inputOf func(ast.Expr) int, held map[*types.Var][]int, mark func(int, InputSummary)) {
	info := fn.Unit.Info
	if IsBuiltin(info, call, "copy") && len(call.Args) > 0 {
		mark(inputOf(call.Args[0]), InputSummary{Mutates: true})
		return
	}
	callee := Callee(info, call)
	if callee == nil {
		return
	}
	// Recognized external effects: atomic publication and WaitGroup
	// join/completion.
	if arg := AtomicStoreValue(info, call, callee); arg != nil {
		mark(inputOf(arg), InputSummary{Publishes: true})
		for _, i := range held[BaseVar(info, arg)] {
			mark(i, InputSummary{Publishes: true})
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			mark(inputOf(sel.X), InputSummary{Mutates: true})
		}
	}
	if recv := waitGroupRecv(info, call, callee); recv != nil {
		switch callee.Name() {
		case "Wait":
			mark(inputOf(recv), InputSummary{Waits: true})
		case "Done":
			mark(inputOf(recv), InputSummary{Dones: true})
		}
	}
	// Transitive effects through in-program callees.
	if s.g.FuncOf(callee) == nil {
		return
	}
	calleeRow := s.byFunc[callee]
	for _, ai := range ArgInputs(info, call, callee) {
		if ai.Input < 0 || ai.Input >= len(calleeRow) {
			continue
		}
		if eff := calleeRow[ai.Input]; eff != (InputSummary{}) {
			mark(inputOf(ai.Expr), eff)
		}
	}
}

// AtomicStoreValue recognizes the publication sinks of the sync/atomic
// package: Pointer/Value .Store(v) and .Swap(v), and
// .CompareAndSwap(old, new). It returns the expression being published,
// or nil.
func AtomicStoreValue(info *types.Info, call *ast.CallExpr, callee *types.Func) ast.Expr {
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
		return nil
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	if !IsNamed(sig.Recv().Type(), "sync/atomic", "Pointer") && !IsNamed(sig.Recv().Type(), "sync/atomic", "Value") {
		return nil
	}
	switch callee.Name() {
	case "Store", "Swap":
		if len(call.Args) == 1 {
			return call.Args[0]
		}
	case "CompareAndSwap":
		if len(call.Args) == 2 {
			return call.Args[1]
		}
	}
	return nil
}

// waitGroupRecv returns the receiver expression of a sync.WaitGroup
// method call, or nil.
func waitGroupRecv(info *types.Info, call *ast.CallExpr, callee *types.Func) ast.Expr {
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return nil
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !IsNamed(sig.Recv().Type(), "sync", "WaitGroup") {
		return nil
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// WritesThrough reports whether an assignment to e writes memory
// reachable from e's base variable (field, element or pointee) rather
// than rebinding the variable itself.
func WritesThrough(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.IndexListExpr, *ast.StarExpr:
		return BaseIdent(e) != nil
	case *ast.ParenExpr:
		return WritesThrough(x.X)
	}
	return false
}

// aliasMap computes which locals alias which inputs: a variable assigned
// (directly or through selection/indexing) from an input reaches memory
// reachable from that input. The map is a fixpoint over the body's
// assignments; inputs map to themselves.
func (fn *Func) aliasMap(inputs map[*types.Var]int) map[*types.Var]int {
	info := fn.Unit.Info
	aliases := make(map[*types.Var]int, len(inputs))
	for v, i := range inputs {
		aliases[v] = i
	}
	resolve := func(e ast.Expr) (int, bool) {
		v := BaseVar(info, e)
		if v == nil {
			return 0, false
		}
		i, ok := aliases[v]
		return i, ok
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for k, lhs := range st.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				v, ok := obj.(*types.Var)
				if !ok {
					continue
				}
				if _, have := aliases[v]; have {
					continue
				}
				if i, ok := resolve(st.Rhs[k]); ok {
					aliases[v] = i
					changed = true
				}
			}
			return true
		})
	}
	return aliases
}

// AliasedVars returns every variable in fn's body that (transitively)
// aliases v — v itself included — under the same base-identifier
// over-approximation the summaries use. Analyzers use this to ask "does
// this write reach memory published a few lines up?".
func (fn *Func) AliasedVars(v *types.Var) map[*types.Var]bool {
	aliases := fn.aliasMap(map[*types.Var]int{v: 0})
	out := make(map[*types.Var]bool, len(aliases))
	for a := range aliases {
		out[a] = true
	}
	return out
}

// Position is a convenience for diagnostics built on graph nodes.
func (fn *Func) Position(pos token.Pos) token.Position {
	return fn.Unit.Fset.Position(pos)
}

// IsBuiltin reports whether call invokes the named built-in.
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}
