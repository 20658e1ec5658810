package temporalir_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/surface.txt from the tree")

// surfaceFile is the exported-surface ledger: one sorted line per
// exported name, flag, route and metric family. A change that grows or
// shrinks the surface shows up as lines entering or leaving this file.
const surfaceFile = "testdata/surface.txt"

// TestSurface compares the tree's exported surface with the ledger. It
// covers, for the root package and every internal/* package, the
// exported declarations, the exported methods of exported types
// (interface methods included) and the exported fields of exported
// structs; every cmd/* flag; the server's routes; and every "tir_*"
// metric literal. Run with -update-surface to rewrite the ledger after
// an intended change.
//
// The exported declarations of docPackages must also carry doc
// comments.
func TestSurface(t *testing.T) {
	for _, dir := range docPackages {
		for _, f := range parseDir(t, dir) {
			for _, name := range undocumented(f) {
				t.Errorf("%s: exported %s has no doc comment", dir, name)
			}
		}
	}
	got := strings.Join(surface(t), "\n") + "\n"
	if *updateSurface {
		if err := os.WriteFile(surfaceFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestSurface -update-surface)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	added, removed := diffSorted(strings.Split(strings.TrimSuffix(got, "\n"), "\n"), want)
	if len(added)+len(removed) > 0 {
		t.Fatalf("exported surface differs from %s (run go test -run TestSurface -update-surface and say why in CHANGES.md)\nadded:\n  %s\nremoved:\n  %s",
			surfaceFile, strings.Join(added, "\n  "), strings.Join(removed, "\n  "))
	}
}

// diffSorted returns the lines only in got and the lines only in want.
func diffSorted(got, want []string) (added, removed []string) {
	in := func(set []string) map[string]bool {
		m := make(map[string]bool, len(set))
		for _, s := range set {
			m[s] = true
		}
		return m
	}
	g, w := in(got), in(want)
	for _, s := range got {
		if !w[s] {
			added = append(added, s)
		}
	}
	for _, s := range want {
		if !g[s] {
			removed = append(removed, s)
		}
	}
	return added, removed
}

// surface lists the tree's exported surface, sorted and de-duplicated.
func surface(t *testing.T) []string {
	t.Helper()
	set := map[string]bool{}
	add := func(format string, args ...any) { set[fmt.Sprintf(format, args...)] = true }

	for _, f := range parseDir(t, ".") {
		decls(f, "temporalir", add)
	}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		for _, f := range parseDir(t, path) {
			decls(f, filepath.ToSlash(path), add)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range parseDir(t, "internal/server") {
		routes(f, add)
	}
	cmds, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range cmds {
		for _, f := range parseDir(t, dir) {
			flags(f, filepath.ToSlash(dir), add)
		}
	}
	metrics(t, add)

	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// docPackages are the directories whose exported declarations need a
// doc comment: the library surface and the data model every index
// builds on.
var docPackages = []string{".", "internal/model"}

// undocumented names every exported top-level function, method, type,
// const and var of f that has no doc comment. The doc of a grouped
// declaration covers all of its specs.
func undocumented(f *ast.File) []string {
	var out []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				out = append(out, d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil {
						out = append(out, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && s.Doc == nil {
							out = append(out, n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

func TestUndocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "doc.go", `package p

// Documented is covered.
func Documented() {}

func Bare() {}

// Group covers both.
const (
	A = 1
	B = 2
)

type (
	// T has its own doc.
	T int
	U int
)

func unexported() {}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(undocumented(f), " "); got != "Bare U" {
		t.Errorf("undocumented = %q, want \"Bare U\"", got)
	}
}

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// decls adds one package's exported top-level declarations, the
// exported methods of its exported types (an interface's included) and
// the exported fields of its exported structs.
func decls(f *ast.File, pkg string, add func(string, ...any)) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add("%s func %s", pkg, d.Name.Name)
			} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(strings.TrimPrefix(recv, "*")) {
				add("%s method (%s) %s", pkg, recv, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					add("%s type %s", pkg, s.Name.Name)
					structFields(s, pkg, add)
					interfaceMethods(s, pkg, add)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							add("%s %s %s", pkg, d.Tok, n.Name)
						}
					}
				}
			}
		}
	}
}

// routes adds the routes the server mounts.
func routes(f *ast.File, add func(string, ...any)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "HandleFunc" && len(call.Args) > 0 {
				if route, ok := stringLit(call.Args[0]); ok {
					add("server route %s", route)
				}
			}
		}
		return true
	})
}

// interfaceMethods adds the methods an interface type spec declares
// itself (embedded interfaces are listed under their own names).
func interfaceMethods(s *ast.TypeSpec, pkg string, add func(string, ...any)) {
	it, ok := s.Type.(*ast.InterfaceType)
	if !ok {
		return
	}
	for _, m := range it.Methods.List {
		for _, n := range m.Names {
			if n.IsExported() {
				add("%s method (%s) %s", pkg, s.Name.Name, n.Name)
			}
		}
	}
}

// structFields adds the exported fields of a struct type spec.
func structFields(s *ast.TypeSpec, pkg string, add func(string, ...any)) {
	st, ok := s.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, fld := range st.Fields.List {
		for _, n := range fld.Names {
			if n.IsExported() {
				add("%s field %s.%s", pkg, s.Name.Name, n.Name)
			}
		}
	}
}

// recvName names a method's receiver type without its type parameters.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return "*" + recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// flags adds every flag a command defines through the flag package.
func flags(f *ast.File, cmd string, add func(string, ...any)) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) > arg+1 {
			if name, ok := stringLit(call.Args[arg]); ok {
				add("%s flag -%s", cmd, name)
			}
		}
		return true
	})
}

var metricName = regexp.MustCompile(`^tir_[a-z0-9_]+$`)

// metrics adds every "tir_*" string literal in the module's non-test Go
// files. A token scan is enough: metric names are plain literals.
func metrics(t *testing.T, add func(string, ...any)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		fset := token.NewFileSet()
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok != token.STRING {
				continue
			}
			if v, err := strconv.Unquote(lit); err == nil && metricName.MatchString(v) {
				add("metric %s", v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// stringLit returns the value of a string literal expression.
func stringLit(x ast.Expr) (string, bool) {
	lit, ok := x.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return v, err == nil
}
