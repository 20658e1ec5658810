package irlint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// loadError aggregates the non-fatal problems hit while loading: packages
// that failed to parse or type-check. Analyzers still run on whatever
// loaded, but a gate should treat a non-empty loadError as a failure —
// missing type information silently weakens the typed analyzers.
type loadError struct {
	problems []string
}

func (e *loadError) Error() string {
	return fmt.Sprintf("irlint: %d load problem(s):\n  %s",
		len(e.problems), strings.Join(e.problems, "\n  "))
}

// Load parses and type-checks the module packages selected by patterns
// ("./..." for everything, "./dir/..." for a subtree, "./dir" for one
// package), rooted at the directory containing go.mod. The in-module
// imports of the matched packages are type-checked too, so a sub-tree
// pattern resolves them, but only the matched packages are returned. Test
// files are not loaded: the suite governs production sources; tests
// deliberately construct invalid inputs.
func Load(root string, patterns []string) ([]*Package, error) {
	root, err := findModuleRoot(root)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	dirs = matchPatterns(dirs, patterns)
	if len(dirs) == 0 {
		return nil, fmt.Errorf("irlint: no packages match %v", patterns)
	}

	fset := token.NewFileSet()
	var problems []string

	raw := make(map[string]*rawPkg)
	ctxt := build.Default
	// dirs grows with in-module imports not queued yet, so the loop
	// parses the import closure of the first nMatched (matched) dirs.
	nMatched := len(dirs)
	queued := make(map[string]bool, len(dirs))
	for _, dir := range dirs {
		queued[dir] = true
	}
	for i := 0; i < len(dirs); i++ {
		dir := dirs[i]
		bp, err := ctxt.ImportDir(filepath.Join(root, dir), 0)
		if err != nil {
			if _, nogo := err.(*build.NoGoError); nogo {
				continue
			}
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		rp := &rawPkg{path: importPathFor(dir), matched: i < nMatched}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(root, dir, name), nil, parser.ParseComments)
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			rp.files = append(rp.files, f)
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil {
					rp.imports = append(rp.imports, path)
					if dep, ok := dirFor(path); ok && !queued[dep] {
						queued[dep] = true
						dirs = append(dirs, dep)
					}
				}
			}
		}
		if len(rp.files) > 0 {
			raw[rp.path] = rp
		}
	}

	// Type-check in dependency order so intra-module imports resolve from
	// the packages checked so far; the stdlib comes from the source
	// importer (offline, no compiled export data needed).
	order := topoOrder(raw)
	imp := &moduleImporter{
		mod: make(map[string]*types.Package),
		std: importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for _, path := range order {
		rp := raw[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		var typeErrs []string
		cfg := types.Config{
			Importer: imp,
			Error: func(err error) {
				typeErrs = append(typeErrs, err.Error())
			},
		}
		tpkg, _ := cfg.Check(path, fset, rp.files, info)
		if len(typeErrs) > 0 {
			n := len(typeErrs)
			if n > 3 {
				typeErrs = typeErrs[:3]
			}
			problems = append(problems, fmt.Sprintf("%s: %d type error(s): %s",
				path, n, strings.Join(typeErrs, "; ")))
		}
		if tpkg != nil {
			imp.mod[path] = tpkg
		}
		if !rp.matched {
			continue
		}
		pkgs = append(pkgs, &Package{
			path:  path,
			fset:  fset,
			files: rp.files,
			info:  info,
			tpkg:  tpkg,
		})
	}
	if len(problems) > 0 {
		return pkgs, &loadError{problems: problems}
	}
	return pkgs, nil
}

// moduleImporter serves already-checked module packages and defers the
// rest (the standard library) to the source importer.
type moduleImporter struct {
	mod map[string]*types.Package
	std types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.mod[path]; ok {
		return p, nil
	}
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		return nil, fmt.Errorf("module package %s not yet checked (import cycle?)", path)
	}
	return im.std.Import(path)
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("irlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// packageDirs returns every module-relative directory containing buildable
// Go files, "." included, skipping hidden directories, testdata and build
// output.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "bin" || name == "results" || name == "vendor") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				dirs = append(dirs, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// matchPatterns filters module-relative dirs by the go-style patterns.
func matchPatterns(dirs, patterns []string) []string {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	keep := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		for _, pat := range patterns {
			if matchPattern(dir, pat) {
				keep = append(keep, dir)
				break
			}
		}
	}
	return keep
}

func matchPattern(dir, pat string) bool {
	pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
	if pat == "..." || pat == "" {
		return true
	}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		return dir == prefix || strings.HasPrefix(dir, prefix+"/")
	}
	if pat == "." {
		return dir == "."
	}
	return dir == strings.TrimSuffix(pat, "/")
}

func importPathFor(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

// dirFor is the inverse of importPathFor: the module-relative directory
// of an in-module import path, false for any other path.
func dirFor(importPath string) (string, bool) {
	if importPath == modulePath {
		return ".", true
	}
	dir, ok := strings.CutPrefix(importPath, modulePath+"/")
	return dir, ok
}

// rawPkg is one parsed-but-not-yet-checked package.
type rawPkg struct {
	path    string
	matched bool // selected by a pattern, not only imported
	files   []*ast.File
	imports []string
}

// topoOrder sorts package paths so every intra-module import precedes its
// importer. Unknown (unloaded) module imports are ignored; cycles — which
// the compiler forbids anyway — fall back to visit order.
func topoOrder(raw map[string]*rawPkg) []string {
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	visited := make(map[string]int) // 0 unseen, 1 visiting, 2 done
	var order []string
	var visit func(p string)
	visit = func(p string) {
		if visited[p] != 0 {
			return
		}
		visited[p] = 1
		for _, dep := range raw[p].imports {
			if _, ok := raw[dep]; ok && visited[dep] != 1 {
				visit(dep)
			}
		}
		visited[p] = 2
		order = append(order, p)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}
