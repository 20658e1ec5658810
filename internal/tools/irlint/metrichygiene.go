package irlint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// metricDirective suppresses a metric-hygiene finding, for the rare
// registration that deliberately breaks a rule (e.g. a bridge exporting
// a foreign metric family under its original name).
const metricDirective = "lint:metric-ok"

// metricRegMethods maps each obs.Registry registration method to whether
// it registers a counter family (whose names must end in _total).
var metricRegMethods = map[string]bool{
	"Counter":     true,
	"CounterFunc": true,
	"Gauge":       false,
	"GaugeFunc":   false,
	"Histogram":   false,
}

// metricHygiene moves metric-endpoint failures from scrape time to lint
// time. For every obs.Registry registration call in the program:
//
//   - the family name must be a compile-time string constant, lowercase
//     snake_case, and prefixed tir_ outside internal/obs — scrapers key
//     dashboards off these names, so they are API;
//   - counter families must end in _total (the Prometheus convention the
//     WritePrometheus encoder assumes);
//   - each family name is registered from exactly one call site
//     program-wide — a second site would silently share or collide state
//     depending on label sets;
//   - histogram bucket bounds must be strictly increasing, whether
//     written literally or returned by a helper of the program, because
//     Histogram.Observe binary-searches the bounds and silently
//     mis-buckets on disorder.
func metricHygiene() *Analyzer {
	const name = "metric-hygiene"
	return &Analyzer{
		name: name,
		program: func(pkgs []*Package) []Diagnostic {
			var out []Diagnostic
			helpers := bucketHelpers(pkgs)
			type regSite struct {
				p   *Package
				pos token.Pos
			}
			sites := map[string][]regSite{}
			for _, p := range pkgs {
				if p.info == nil {
					continue
				}
				for _, f := range p.files {
					ast.Inspect(f, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok || len(call.Args) == 0 {
							return true
						}
						method, ok := registryMethod(p.info, call)
						if !ok || p.allowed(f, call.Pos(), metricDirective) {
							return true
						}
						nameVal, isConst := constString(p.info, call.Args[0])
						if !isConst {
							out = append(out, p.diag(name, call.Args[0].Pos(),
								"metric name must be a compile-time string constant so the family set is auditable; computed names hide collisions until scrape time (or annotate with // %s <reason>)",
								metricDirective))
							return true
						}
						if !wellFormedMetricName(nameVal) {
							out = append(out, p.diag(name, call.Args[0].Pos(),
								"metric name %q is not lowercase snake_case ([a-z][a-z0-9_]*); Prometheus scrapers reject or mangle it (or annotate with // %s <reason>)",
								nameVal, metricDirective))
						}
						if p.path != obsPath && !strings.HasPrefix(nameVal, "tir_") {
							out = append(out, p.diag(name, call.Args[0].Pos(),
								"metric name %q lacks the tir_ namespace prefix; unprefixed families collide with other exporters on shared scrape targets (or annotate with // %s <reason>)",
								nameVal, metricDirective))
						}
						if metricRegMethods[method] && !strings.HasSuffix(nameVal, "_total") {
							out = append(out, p.diag(name, call.Args[0].Pos(),
								"counter family %q must end in _total (Prometheus counter convention) (or annotate with // %s <reason>)",
								nameVal, metricDirective))
						}
						if method == "Histogram" && len(call.Args) >= 3 {
							if bounds, src := resolveBuckets(p.info, helpers, call.Args[2]); bounds != nil {
								if i := firstNonIncreasing(bounds); i >= 0 {
									out = append(out, p.diag(name, call.Args[2].Pos(),
										"histogram buckets%s are not strictly increasing at index %d (%v >= %v); Observe binary-searches the bounds and mis-buckets on disorder",
										src, i, bounds[i], bounds[i+1]))
								}
							}
						}
						sites[nameVal] = append(sites[nameVal], regSite{p: p, pos: call.Pos()})
						return true
					})
				}
			}
			fams := make([]string, 0, len(sites))
			for fam := range sites {
				fams = append(fams, fam)
			}
			sort.Strings(fams)
			for _, fam := range fams {
				ss := sites[fam]
				if len(ss) < 2 {
					continue
				}
				sort.Slice(ss, func(i, j int) bool {
					pi, pj := ss[i].p.fset.Position(ss[i].pos), ss[j].p.fset.Position(ss[j].pos)
					if pi.Filename != pj.Filename {
						return pi.Filename < pj.Filename
					}
					return pi.Line < pj.Line
				})
				first := ss[0].p.fset.Position(ss[0].pos)
				for _, s := range ss[1:] {
					out = append(out, s.p.diag(name, s.pos,
						"metric family %q already registered at %s:%d; one family, one registration site (or annotate with // %s <reason>)",
						fam, first.Filename, first.Line, metricDirective))
				}
			}
			return out
		},
	}
}

// bucketHelper is a function whose body is a single `return
// []float64{...}`, with the type information to evaluate it.
type bucketHelper struct {
	lit  *ast.CompositeLit
	info *types.Info
}

// bucketHelpers indexes every function of pkgs whose body is a single
// return of a composite literal — the shape of obs.DefLatencyBuckets.
func bucketHelpers(pkgs []*Package) map[*types.Func]bucketHelper {
	out := map[*types.Func]bucketHelper{}
	for _, p := range pkgs {
		if p.info == nil {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || len(fd.Body.List) != 1 {
					continue
				}
				ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					continue
				}
				lit, ok := ret.Results[0].(*ast.CompositeLit)
				if fn, isFunc := p.info.Defs[fd.Name].(*types.Func); ok && isFunc {
					out[fn] = bucketHelper{lit: lit, info: p.info}
				}
			}
		}
	}
	return out
}

// registryMethod reports whether call is one of the obs.Registry
// registration methods, and which.
func registryMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, known := metricRegMethods[sel.Sel.Name]; !known {
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !typeIs(tv.Type, obsPath, "Registry") {
		return "", false
	}
	return sel.Sel.Name, true
}

// constString returns the compile-time value of a string expression.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// wellFormedMetricName enforces [a-z][a-z0-9_]* — the subset of valid
// Prometheus names this repo standardizes on.
func wellFormedMetricName(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// resolveBuckets extracts histogram bounds when they are statically
// knowable: a literal []float64{...} of constants, or a call to a
// helper of the program whose body is a single `return []float64{...}`.
// The second return value names the source for the diagnostic ("" for a
// literal, " returned by F" for a resolved helper). Unknowable bounds
// return nil and are not checked.
func resolveBuckets(info *types.Info, helpers map[*types.Func]bucketHelper, e ast.Expr) ([]float64, string) {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return litFloats(info, x), ""
	case *ast.CallExpr:
		var id *ast.Ident
		switch fun := x.Fun.(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			if h, ok := helpers[fn.Origin()]; ok {
				return litFloats(h.info, h.lit), " returned by " + fn.Name()
			}
		}
	}
	return nil, ""
}

// litFloats evaluates every element of a composite literal as a float
// constant; any non-constant element makes the whole literal unknowable.
func litFloats(info *types.Info, lit *ast.CompositeLit) []float64 {
	out := make([]float64, 0, len(lit.Elts))
	for _, el := range lit.Elts {
		tv, ok := info.Types[el]
		if !ok || tv.Value == nil {
			return nil
		}
		f, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		out = append(out, f)
	}
	return out
}

// firstNonIncreasing returns the first index i with bounds[i] >=
// bounds[i+1], or -1 when strictly increasing.
func firstNonIncreasing(bounds []float64) int {
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] >= bounds[i+1] {
			return i
		}
	}
	return -1
}
