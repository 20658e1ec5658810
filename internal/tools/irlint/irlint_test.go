package irlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// obsStub stands in for repro/internal/obs: the trace recorder whose
// StartStage spans the span-end analyzer keeps deferred.
const obsStub = `package obs

type Stage uint8

const (
	StagePlan Stage = iota
	StagePostings
)

type Trace struct{}

type StageTimer struct{}

func (t *Trace) StartStage(s Stage) StageTimer { return StageTimer{} }

func (st StageTimer) End() {}

type Label struct{ Key, Value string }

type Counter struct{}

func (c *Counter) Inc() {}

type Gauge struct{}

type Histogram struct{}

type Registry struct{}

func (r *Registry) Counter(name, help string, labels ...Label) *Counter { return nil }

func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge { return nil }

func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return nil
}

func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {}

func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {}
`

// reproStub stands in for the root package with a three-method universe,
// so method-exhaustiveness fixtures stay readable.
const reproStub = `package temporalir

type Method string

const (
	TIF        Method = "tif"
	TIFSlicing Method = "tif+slicing"
	IRHintPerf Method = "irhint/perf"
)
`

// fixtureStubs are the stand-in packages registered for every fixture,
// in dependency order.
var fixtureStubs = []struct{ path, name, src string }{
	{obsPath, "obs.go", obsStub},
	{modulePath, "repro.go", reproStub},
}

// fixtureFset and fixtureStd are shared by every fixture in the test
// binary: the source importer type-checks each standard-library package
// once and caches it, instead of once per fixture.
var (
	fixtureFset = token.NewFileSet()
	fixtureStd  = importer.ForCompiler(fixtureFset, "source", nil)
)

// checkFixture type-checks one fixture package (import path, source) with
// the stub packages available, returning the loaded Package.
func checkFixture(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := fixtureFset

	parse := func(name, source string) *ast.File {
		f, err := parser.ParseFile(fset, name, source, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		return f
	}

	newInfo := func() *types.Info {
		return &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}

	imp := &moduleImporter{
		mod: make(map[string]*types.Package),
		std: fixtureStd,
	}
	cfg := types.Config{Importer: imp}

	for _, stub := range fixtureStubs {
		if stub.path == path {
			continue // the fixture replaces this stub wholesale
		}
		stubFile := parse(stub.name, stub.src)
		stubPkg, err := cfg.Check(stub.path, fset, []*ast.File{stubFile}, newInfo())
		if err != nil {
			t.Fatalf("check stub %s: %v", stub.path, err)
		}
		imp.mod[stub.path] = stubPkg
	}

	file := parse("fixture.go", src)
	info := newInfo()
	tpkg, err := cfg.Check(path, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("check fixture: %v", err)
	}
	return &Package{path: path, fset: fset, files: []*ast.File{file}, info: info, tpkg: tpkg}
}

// analyzerByName fetches one analyzer from the suite.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

// fixtureCase is one analyzer run over one fixture package.
type fixtureCase struct {
	name     string // test case
	analyzer string
	path     string // fixture import path
	src      string
	want     int      // number of findings
	contains []string // substrings expected in messages
}

// TestAnalyzers drives the analyzers that see one function at a time
// over firing and silent fixtures.
func TestAnalyzers(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{
			name:     "map range into ordered sink flagged",
			analyzer: "map-order",
			path:     modulePath + "/internal/fix",
			src: `package fix

func bad(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`,
			want:     1,
			contains: []string{"iteration order"},
		},
		{
			name:     "map range sorted afterwards conforms",
			analyzer: "map-order",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "sort"

func good(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
`,
			want: 0,
		},
		{
			name:     "map range with escape hatch conforms",
			analyzer: "map-order",
			path:     modulePath + "/internal/fix",
			src: `package fix

func good(m map[int]string) []string {
	var out []string
	// lint:map-order-ok order established by caller
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
`,
			want: 0,
		},
		{
			name:     "slice range conforms",
			analyzer: "map-order",
			path:     modulePath + "/internal/fix",
			src: `package fix

func good(s []string) []string {
	var out []string
	for _, v := range s {
		out = append(out, v)
	}
	return out
}
`,
			want: 0,
		},
		{
			name:     "map range appending to loop-local conforms",
			analyzer: "map-order",
			path:     modulePath + "/internal/fix",
			src: `package fix

func good(m map[int][]string) int {
	n := 0
	for _, v := range m {
		var local []string
		local = append(local, v...)
		n += len(local)
	}
	return n
}
`,
			want: 0,
		},
		{
			name:     "unaccounted dynamic field flagged",
			analyzer: "size-accounting",
			path:     modulePath + "/internal/tif",
			src: `package tif

type Index struct {
	lists [][]uint32
	extra []byte
	live  int
}

func (ix *Index) SizeBytes() int64 {
	var total int64
	for e := range ix.lists {
		total += int64(cap(ix.lists[e])) * 4
	}
	return total
}
`,
			want:     1,
			contains: []string{"extra"},
		},
		{
			name:     "helper-accounted fields conform",
			analyzer: "size-accounting",
			path:     modulePath + "/internal/tif",
			src: `package tif

type Index struct {
	lists [][]uint32
	extra []byte
	live  int
}

func (ix *Index) SizeBytes() int64 { return listBytes(ix.lists) + extraBytes(ix) }

func listBytes(l [][]uint32) int64 { return int64(len(l)) }

func extraBytes(ix *Index) int64 { return int64(cap(ix.extra)) }
`,
			want: 0,
		},
		{
			name:     "size escape hatch honored",
			analyzer: "size-accounting",
			path:     modulePath + "/internal/tif",
			src: `package tif

type Index struct {
	lists   [][]uint32
	scratch []byte // lint:size-ok transient buffer, not resident index state
}

func (ix *Index) SizeBytes() int64 { return int64(len(ix.lists)) * 24 }
`,
			want: 0,
		},
		{
			name:     "size accounting ignores non-index packages",
			analyzer: "size-accounting",
			path:     modulePath + "/internal/fix",
			src: `package fix

type Index struct {
	lists [][]uint32
}

func (ix *Index) SizeBytes() int64 { return 0 }
`,
			want: 0,
		},
		{
			name:     "non-exhaustive method switch with plain default flagged",
			analyzer: "method-exhaustiveness",
			path:     modulePath + "/internal/fix",
			src: `package fix

import temporalir "repro"

func dispatch(m temporalir.Method) int {
	switch m {
	case temporalir.TIF:
		return 1
	case temporalir.TIFSlicing:
		return 2
	default:
		return 0
	}
}
`,
			want:     1,
			contains: []string{"IRHintPerf"},
		},
		{
			name:     "non-exhaustive method switch without default flagged",
			analyzer: "method-exhaustiveness",
			path:     modulePath + "/internal/fix",
			src: `package fix

import temporalir "repro"

func dispatch(m temporalir.Method) int {
	switch m {
	case temporalir.TIF:
		return 1
	}
	return 0
}
`,
			want:     1,
			contains: []string{"IRHintPerf", "TIFSlicing"},
		},
		{
			name:     "exhaustive method switch and non-method switch conform",
			analyzer: "method-exhaustiveness",
			path:     modulePath + "/internal/fix",
			src: `package fix

import temporalir "repro"

func dispatch(m temporalir.Method) int {
	switch m {
	case temporalir.TIF, temporalir.TIFSlicing:
		return 1
	case temporalir.IRHintPerf:
		return 2
	default:
		return 0
	}
}

func other(s string) int {
	switch s {
	case "x":
		return 1
	}
	return 0
}
`,
			want: 0,
		},
		{
			name:     "annotated default exempts a method switch",
			analyzer: "method-exhaustiveness",
			path:     modulePath + "/internal/fix",
			src: `package fix

import temporalir "repro"

func dispatch(m temporalir.Method) int {
	switch m {
	case temporalir.TIF:
		return 1
	// lint:method-ok remaining methods route through the registry
	default:
		return 0
	}
}
`,
			want: 0,
		},
		{
			name:     "deferred span conforms",
			analyzer: "span-end",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func good(tr *obs.Trace) {
	defer tr.StartStage(obs.StagePlan).End()
}
`,
			want: 0,
		},
		{
			name:     "assigned span timer flagged",
			analyzer: "span-end",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func bad(tr *obs.Trace) {
	st := tr.StartStage(obs.StagePlan)
	st.End()
}
`,
			want:     1,
			contains: []string{"defer tr.StartStage(s).End()"},
		},
		{
			name:     "dropped span timer flagged",
			analyzer: "span-end",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func bad(tr *obs.Trace) {
	tr.StartStage(obs.StagePostings)
}
`,
			want:     1,
			contains: []string{"not closed by an immediate defer"},
		},
		{
			name:     "non-deferred immediate end flagged",
			analyzer: "span-end",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func bad(tr *obs.Trace) {
	tr.StartStage(obs.StagePlan).End()
}
`,
			want: 1,
		},
		{
			name:     "deferred end through a named timer flagged",
			analyzer: "span-end",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func bad(tr *obs.Trace) {
	st := tr.StartStage(obs.StagePlan)
	defer st.End()
}
`,
			want: 1,
		},
		{
			name:     "span escape hatch honored",
			analyzer: "span-end",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func exempt(tr *obs.Trace) {
	// lint:span-ok timer handed to a helper that always Ends it
	st := tr.StartStage(obs.StagePlan)
	st.End()
}
`,
			want: 0,
		},
		{
			name:     "unrelated StartStage method ignored",
			analyzer: "span-end",
			path:     modulePath + "/internal/fix",
			src: `package fix

type machine struct{}

func (m *machine) StartStage(s int) int { return s }

func fine(m *machine) {
	_ = m.StartStage(1)
}
`,
			want: 0,
		},
	})
}

// TestV3Analyzers drives goroutine-exit and metric-hygiene over firing
// and silent fixtures. Every analyzer must both catch its bug shape and
// stay quiet on the conforming idiom — a lint that cannot stay quiet
// gets annotated into uselessness.
func TestV3Analyzers(t *testing.T) {
	runFixtures(t, []fixtureCase{
		// ---- goroutine-exit: firing ----
		{
			name:     "fire-and-forget goroutine flagged",
			analyzer: "goroutine-exit",
			path:     modulePath + "/internal/fix",
			src: `package fix

func leak() {
	go func() {
		for {
		}
	}()
}
`,
			want:     1,
			contains: []string{"no provable join"},
		},
		{
			name:     "receive only inside select flagged",
			analyzer: "goroutine-exit",
			path:     modulePath + "/internal/fix",
			src: `package fix

func racy(stop chan struct{}) int {
	done := make(chan int, 1)
	go func() { done <- 1 }()
	select {
	case v := <-done:
		return v
	case <-stop:
		return 0
	}
}
`,
			want:     1,
			contains: []string{"no provable join"},
		},
		{
			name:     "goroutine-exits annotation without condition flagged",
			analyzer: "goroutine-exit",
			path:     modulePath + "/internal/fix",
			src: `package fix

func annotatedEmpty() {
	// irlint:goroutine-exits
	go func() {}()
}
`,
			want:     1,
			contains: []string{"needs a stated exit condition"},
		},
		// ---- goroutine-exit: silent ----
		{
			name:     "waitgroup join conforms",
			analyzer: "goroutine-exit",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "sync"

func joined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}
`,
			want: 0,
		},
		{
			name:     "unconditional channel receive conforms",
			analyzer: "goroutine-exit",
			path:     modulePath + "/internal/fix",
			src: `package fix

func collected() int {
	done := make(chan int, 1)
	go func() { done <- 1 }()
	return <-done
}
`,
			want: 0,
		},
		{
			name:     "named worker without a literal join flagged",
			analyzer: "goroutine-exit",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "sync"

func worker(wg *sync.WaitGroup) { defer wg.Done() }

func spawn() {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(&wg)
	wg.Wait()
}
`,
			want:     1,
			contains: []string{"no provable join"},
		},
		{
			name:     "annotated detached goroutine conforms",
			analyzer: "goroutine-exit",
			path:     modulePath + "/internal/fix",
			src: `package fix

func detached() {
	// irlint:goroutine-exits exits when the buffered send completes; result may be abandoned
	go func() {}()
}
`,
			want: 0,
		},
		// ---- metric-hygiene: firing ----
		{
			name:     "computed metric name flagged",
			analyzer: "metric-hygiene",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func register(r *obs.Registry, suffix string) {
	r.Counter("tir_"+suffix, "help")
}
`,
			want:     1,
			contains: []string{"compile-time string constant"},
		},
		{
			name:     "malformed and unprefixed name flagged",
			analyzer: "metric-hygiene",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func register(r *obs.Registry) {
	r.Gauge("Queries-Active", "help")
}
`,
			want:     2,
			contains: []string{"snake_case", "tir_ namespace prefix"},
		},
		{
			name:     "counter without _total flagged",
			analyzer: "metric-hygiene",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func register(r *obs.Registry) {
	r.Counter("tir_queries", "help")
}
`,
			want:     1,
			contains: []string{"_total"},
		},
		{
			name:     "non-monotonic literal buckets flagged",
			analyzer: "metric-hygiene",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func register(r *obs.Registry) {
	r.Histogram("tir_latency_seconds", "help", []float64{0.1, 0.5, 0.5, 1})
}
`,
			want:     1,
			contains: []string{"not strictly increasing"},
		},
		{
			name:     "non-monotonic helper buckets resolved through graph",
			analyzer: "metric-hygiene",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func buckets() []float64 { return []float64{1, 3, 2} }

func register(r *obs.Registry) {
	r.Histogram("tir_sizes", "help", buckets())
}
`,
			want:     1,
			contains: []string{"returned by buckets"},
		},
		{
			name:     "duplicate family registration flagged once",
			analyzer: "metric-hygiene",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func registerA(r *obs.Registry) {
	r.Counter("tir_events_total", "help")
}

func registerB(r *obs.Registry) {
	r.Counter("tir_events_total", "other help")
}
`,
			want:     1,
			contains: []string{"already registered"},
		},
		// ---- metric-hygiene: silent ----
		{
			name:     "well-formed families conform",
			analyzer: "metric-hygiene",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func register(r *obs.Registry) {
	r.Counter("tir_queries_total", "help")
	r.Gauge("tir_inflight", "help")
	r.CounterFunc("tir_slow_total", "help", func() float64 { return 0 })
}
`,
			want: 0,
		},
		{
			name:     "monotonic helper buckets conform",
			analyzer: "metric-hygiene",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func buckets() []float64 { return []float64{0.001, 0.01, 0.1, 1, 10} }

func register(r *obs.Registry) {
	r.Histogram("tir_latency_seconds", "help", buckets())
}
`,
			want: 0,
		},
		{
			name:     "metric-ok escape hatch honored",
			analyzer: "metric-hygiene",
			path:     modulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func register(r *obs.Registry) {
	// lint:metric-ok bridging a foreign exporter that owns this name
	r.Gauge("process_start_time_seconds", "help")
}
`,
			want: 0,
		},
	})
}

// runFixtures checks each case's finding count, messages and positions.
func runFixtures(t *testing.T, cases []fixtureCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := checkFixture(t, tc.path, tc.src)
			diags := Run([]*Package{p}, []*Analyzer{analyzerByName(t, tc.analyzer)})
			if len(diags) != tc.want {
				t.Fatalf("got %d finding(s), want %d:\n%s", len(diags), tc.want, diagList(diags))
			}
			all := diagList(diags)
			for _, sub := range tc.contains {
				if !strings.Contains(all, sub) {
					t.Errorf("findings lack %q:\n%s", sub, all)
				}
			}
			for _, d := range diags {
				if d.pos.Line <= 0 || d.pos.Filename == "" {
					t.Errorf("finding lacks file:line position: %+v", d)
				}
			}
		})
	}
}

func diagList(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// TestRunSortsDiagnostics checks the combined runner orders findings by
// position for stable CI output.
func TestRunSortsDiagnostics(t *testing.T) {
	p := checkFixture(t, modulePath+"/internal/fix", `package fix

func a(m map[int]int) (out []int) {
	for k := range m {
		out = append(out, k)
	}
	return out
}

func b() { go func() {}() }
`)
	diags := Run([]*Package{p}, []*Analyzer{goroutineExit(), mapOrder()})
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2", len(diags))
	}
	if diags[0].pos.Line > diags[1].pos.Line {
		t.Errorf("diagnostics not sorted: %v", diags)
	}
}

// TestLoadRepository smoke-tests the loader against the live module: it
// must load every package with type information and the suite must be
// clean. This is the lint gate of tier-1 and CI; cmd/irlint runs the
// same analyzers for `make lint`. LINTING.md's ledger must also count
// the annotations the tree carries.
func TestLoadRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	t.Parallel()
	pkgs, err := Load("../../..", []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := make(map[string]bool)
	for _, p := range pkgs {
		byPath[p.path] = true
		if p.tpkg == nil {
			t.Errorf("%s: no type information", p.path)
		}
	}
	for _, want := range []string{modulePath, modulePath + "/internal/model", modulePath + "/internal/hint"} {
		if !byPath[want] {
			t.Errorf("loader missed package %s", want)
		}
	}
	if diags := Run(pkgs, Analyzers()); len(diags) > 0 {
		t.Errorf("repository not lint-clean:\n%s", diagList(diags))
	}
	for _, p := range pkgs {
		for _, pos := range defersInLoops(p) {
			t.Errorf("%s: defer inside a loop body queues one deferred call per iteration until the function returns; hoist it or move the body into a function", pos)
		}
	}
	checkLedgerAnnotations(t, "../../..")
}

// annotationMarkers names, per analyzer, the comment markers it reads.
var annotationMarkers = map[string][]string{
	"map-order":             {mapOrderDirective},
	"size-accounting":       {sizeDirective},
	"method-exhaustiveness": {methodDirective},
	"span-end":              {spanDirective},
	"goroutine-exit":        {goroutineExitsDirective},
	"metric-hygiene":        {metricDirective},
}

// checkLedgerAnnotations compares the Annotations column of LINTING.md's
// ledger, and the total its prose gives, with the markers counted in the
// comments of every Go file of the module at root outside the linter's
// own package, test files included.
func checkLedgerAnnotations(t *testing.T, root string) {
	t.Helper()
	for _, a := range Analyzers() {
		if _, ok := annotationMarkers[a.name]; !ok {
			t.Errorf("analyzer %s has no entry in annotationMarkers", a.name)
		}
	}
	counted, total := countAnnotations(t, root), 0
	for _, n := range counted {
		total += n
	}
	doc, err := os.ReadFile(filepath.Join(root, "LINTING.md"))
	if err != nil {
		t.Fatal(err)
	}
	// The ledger table is the one under "## Ledger", before the next
	// heading; the plant table below it names analyzers too.
	ledger := string(doc)
	if i := strings.Index(ledger, "\n## Ledger\n"); i >= 0 {
		ledger = ledger[i+1:]
		if j := strings.Index(ledger, "\n#"); j >= 0 {
			ledger = ledger[:j]
		}
	}
	rows := 0
	for _, line := range strings.Split(ledger, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, ok := annotationMarkers[name]; !ok {
			continue
		}
		rows++
		if got, err := strconv.Atoi(strings.TrimSpace(cells[3])); err != nil || got != counted[name] {
			t.Errorf("LINTING.md ledger: %s has %q annotations, the tree %d", name, strings.TrimSpace(cells[3]), counted[name])
		}
	}
	if rows != len(annotationMarkers) {
		t.Errorf("LINTING.md ledger: %d analyzer rows, want %d", rows, len(annotationMarkers))
	}
	if m := regexp.MustCompile(`\((\d+) in all`).FindSubmatch(doc); m == nil || string(m[1]) != strconv.Itoa(total) {
		t.Errorf("LINTING.md ledger: prose gives the annotations in all as %q, the tree %d", m, total)
	}
}

// countAnnotations counts each analyzer's markers in the comments of the
// Go files under root, skipping the linter's own package (its fixtures
// and docs name every marker), testdata and hidden directories.
func countAnnotations(t *testing.T, root string) map[string]int {
	t.Helper()
	linter := filepath.Join(root, "internal", "tools", "irlint")
	counts := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == linter || d.Name() == "testdata" || path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for name, markers := range annotationMarkers {
					for _, m := range markers {
						counts[name] += strings.Count(c.Text, m)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// defersInLoops returns the position of every defer statement inside a
// for or range body of p's non-test files. A function literal starts a
// new scope, so a defer in a closure called per iteration is fine. A
// deferred closure per match in postings.IntersectSortedIDs once cost
// 15 % of lib_methods qps while allocating nothing, so no allocation
// budget saw it (LINTING.md, Ledger).
func defersInLoops(p *Package) []token.Position {
	var out []token.Position
	for _, f := range p.files {
		ast.Walk(loopDeferVisitor{fset: p.fset, out: &out}, f)
	}
	return out
}

type loopDeferVisitor struct {
	fset   *token.FileSet
	out    *[]token.Position
	inLoop bool
}

func (v loopDeferVisitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.FuncLit:
		v.inLoop = false
	case *ast.ForStmt, *ast.RangeStmt:
		v.inLoop = true
	case *ast.DeferStmt:
		if v.inLoop {
			*v.out = append(*v.out, v.fset.Position(n.Pos()))
		}
	}
	return v
}

func TestDefersInLoops(t *testing.T) {
	p := checkFixture(t, modulePath+"/internal/fix", `package fix

func inLoop(xs []int) {
	for range xs {
		defer func() {}()
	}
	for i := 0; i < 2; i++ {
		if i > 0 {
			defer func() {}()
		}
	}
}

func inClosure(xs []int) {
	defer func() {}()
	for range xs {
		func() {
			defer func() {}()
		}()
	}
}
`)
	got := defersInLoops(p)
	if len(got) != 2 || got[0].Line != 5 || got[1].Line != 9 {
		t.Fatalf("defersInLoops = %v, want lines 5 and 9", got)
	}
}

// TestLoadSubtree checks a pattern narrower than the module on a
// two-package module written for the test: a imports b, which the
// pattern does not match, so Load must type-check b without returning
// or linting it. Neither package imports the standard library, so the
// test costs no source type-check of it.
func TestLoadSubtree(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module " + modulePath + "\n",
		"a/a.go": "package a\n\nimport \"" + modulePath + "/b\"\n\nvar X = b.Y\n",
		"b/b.go": "package b\n\nvar Y = 1\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(root, []string{"./a"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].path != modulePath+"/a" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.path)
		}
		t.Fatalf("Load returned %v, want only %s/a", got, modulePath)
	}
	if pkgs[0].tpkg == nil || !pkgs[0].tpkg.Complete() {
		t.Errorf("%s: incomplete type information", pkgs[0].path)
	}
}
