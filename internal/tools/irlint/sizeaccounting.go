package irlint

import (
	"go/ast"
	"go/types"
)

// sizeDirective exempts a field from size accounting (e.g. scratch space
// deliberately excluded from the paper's Table 4 comparisons).
const sizeDirective = "lint:size-ok"

// sizePackages are the index-bearing packages whose SizeBytes estimates
// back the paper's size experiments (Tables 4 and 5); an unaccounted
// field there silently skews every reported footprint.
var sizePackages = map[string]bool{
	"internal/core":     true,
	"internal/hint":     true,
	"internal/tif":      true,
	"internal/slicing":  true,
	"internal/sharding": true,
	"internal/tifhint":  true,
}

// sizeAccounting checks, for every exported struct with a
// SizeBytes method in the index packages, that each dynamically-sized
// field (slice, map, string, pointer, interface, chan, func — or a
// struct/array containing one) is referenced somewhere in the SizeBytes
// implementation, following same-package helper calls a few levels deep.
// Fixed-size scalar fields live inside the constant struct-overhead term
// and are exempt.
func sizeAccounting() *Analyzer {
	const name = "size-accounting"
	return &Analyzer{
		name: name,
		run: func(p *Package) []Diagnostic {
			if !sizePackages[relPath(p.path)] || p.info == nil {
				return nil
			}
			structs := exportedStructs(p)
			methods, funcs := packageFuncs(p)
			var out []Diagnostic
			for _, st := range structs {
				sb, ok := methods[st.name]["SizeBytes"]
				if !ok {
					continue
				}
				refs := make(map[string]bool)
				collectRefs(sb, methods, funcs, refs, 4)
				for _, fld := range st.fields {
					if refs[fld.name] {
						continue
					}
					if !p.fieldIsDynamic(fld.ident) {
						continue
					}
					if f := p.fileOf(fld.ident.Pos()); f != nil && p.allowed(f, fld.ident.Pos(), sizeDirective) {
						continue
					}
					out = append(out, p.diag(name, fld.ident.Pos(),
						"field %s.%s is dynamically sized but not reflected in %s.SizeBytes (annotate with // %s <reason> if excluded on purpose)",
						st.name, fld.name, st.name, sizeDirective))
				}
			}
			return out
		},
	}
}

// structInfo is one exported struct declaration.
type structInfo struct {
	name   string
	fields []fieldInfo
}

type fieldInfo struct {
	name  string
	ident *ast.Ident
}

// exportedStructs collects the exported struct types declared in the
// package.
func exportedStructs(p *Package) []structInfo {
	var out []structInfo
	for _, f := range p.files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				info := structInfo{name: ts.Name.Name}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						info.fields = append(info.fields, fieldInfo{name: id.Name, ident: id})
					}
				}
				out = append(out, info)
			}
		}
	}
	return out
}

// packageFuncs indexes the package's function declarations: methods by
// receiver type name then method name, plain functions by name.
func packageFuncs(p *Package) (methods map[string]map[string]*ast.FuncDecl, funcs map[string]*ast.FuncDecl) {
	methods = make(map[string]map[string]*ast.FuncDecl)
	funcs = make(map[string]*ast.FuncDecl)
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv == nil || len(fd.Recv.List) == 0 {
				funcs[fd.Name.Name] = fd
				continue
			}
			recv := receiverTypeName(fd.Recv.List[0].Type)
			if recv == "" {
				continue
			}
			if methods[recv] == nil {
				methods[recv] = make(map[string]*ast.FuncDecl)
			}
			methods[recv][fd.Name.Name] = fd
		}
	}
	return methods, funcs
}

func receiverTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return receiverTypeName(t.X)
	case *ast.IndexListExpr:
		return receiverTypeName(t.X)
	}
	return ""
}

// collectRefs records every selector name mentioned in fd's body, then
// follows same-package calls (by name, any receiver) up to depth levels.
func collectRefs(fd *ast.FuncDecl, methods map[string]map[string]*ast.FuncDecl, funcs map[string]*ast.FuncDecl, refs map[string]bool, depth int) {
	if fd == nil || fd.Body == nil || depth == 0 {
		return
	}
	var callees []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			refs[e.Sel.Name] = true
		case *ast.CallExpr:
			switch fn := e.Fun.(type) {
			case *ast.Ident:
				callees = append(callees, fn.Name)
			case *ast.SelectorExpr:
				callees = append(callees, fn.Sel.Name)
			}
		}
		return true
	})
	marker := "called:" + fd.Name.Name
	if refs[marker] {
		return
	}
	refs[marker] = true
	for _, c := range callees {
		if g, ok := funcs[c]; ok {
			collectRefs(g, methods, funcs, refs, depth-1)
		}
		for _, ms := range methods {
			if g, ok := ms[c]; ok {
				collectRefs(g, methods, funcs, refs, depth-1)
			}
		}
	}
}

// fieldIsDynamic reports whether the declared field's type owns
// dynamically-sized memory.
func (p *Package) fieldIsDynamic(ident *ast.Ident) bool {
	obj := p.info.Defs[ident]
	if obj == nil || obj.Type() == nil {
		return false
	}
	return isDynamicType(obj.Type(), make(map[types.Type]bool))
}

func isDynamicType(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Chan, *types.Pointer, *types.Interface, *types.Signature:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Array:
		return isDynamicType(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if isDynamicType(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
