package allocbudget

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoOrphanedBudgets fails on a budget entry that no gate can reach:
// every key in BENCH_BUDGET.json must appear as a string literal in a
// _test.go file of the module that calls allocbudget.Gate. A budget
// whose kernel was deleted or renamed otherwise lingers in the table,
// enforcing nothing. Keys spelled as map-literal keys in a gating loop
// count, since they are string literals in a gating file.
func TestNoOrphanedBudgets(t *testing.T) {
	path, err := budgetPath()
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := gatedLiterals(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for k := range budgets {
		if !gated[k] {
			orphans = append(orphans, k)
		}
	}
	sort.Strings(orphans)
	for _, k := range orphans {
		t.Errorf("budget %q in %s is named by no test that calls allocbudget.Gate; delete the entry or gate the kernel", k, BudgetFile)
	}
}

// gatedLiterals returns every string literal in the module's _test.go
// files that call allocbudget.Gate.
func gatedLiterals(root string) (map[string]bool, error) {
	out := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !callsGate(f) {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out[s] = true
				}
			}
			return true
		})
		return nil
	})
	return out, err
}

// callsGate reports whether f refers to allocbudget.Gate.
func callsGate(f *ast.File) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Gate" {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "allocbudget" {
				found = true
			}
		}
		return !found
	})
	return found
}
