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

// modelStub is a minimal stand-in for repro/internal/model, enough for
// fixtures to type-check without loading the real repository.
const modelStub = `package model

type Timestamp = int64

type ObjectID uint32

type Interval struct {
	Start Timestamp
	End   Timestamp
}

func NewInterval(start, end Timestamp) Interval { return Interval{Start: start, End: end} }

func Canon(a, b Timestamp) Interval { return Interval{Start: a, End: b}  }
`

// postingsStub stands in for repro/internal/postings: the shared postings
// storage whose accessor results the alias-mutation analyzer protects.
const postingsStub = `package postings

type Posting struct{ ID uint32 }

type List []Posting

func (l *List) Append(p Posting) { *l = append(*l, p) }

func (l List) Sort() {}

func (l List) Clone() List { out := make(List, len(l)); copy(out, l); return out }

func Shared() List { return nil }
`

// tifStub stands in for repro/internal/tif with its aliasing accessor.
const tifStub = `package tif

import "repro/internal/postings"

type Index struct{ lists []postings.List }

func (ix *Index) List(e int) postings.List { return ix.lists[e] }
`

// domainStub stands in for repro/internal/domain: every grid-value
// producer the domain-bounds analyzer tracks.
const domainStub = `package domain

type Domain struct{ M int }

func (d Domain) Cells() uint32 { return uint32(1) << uint(d.M) }

func (d Domain) Disc(t int64) uint32 { return 0 }

func (d Domain) DiscInterval(s, e int64) (lo, hi uint32) { return 0, 0 }

func (d Domain) Prefix(level int, v uint32) uint32 { return v }

func (d Domain) PartitionExtent(level int, j uint32) (lo, hi uint32) { return 0, 0 }
`

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
	{modelPath, "model.go", modelStub},
	{postingsPath, "postings.go", postingsStub},
	{tifPath, "tif.go", tifStub},
	{domainPath, "domain.go", domainStub},
	{obsPath, "obs.go", obsStub},
	{ModulePath, "repro.go", reproStub},
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
	return &Package{Path: path, Fset: fset, Files: []*ast.File{file}, Info: info, Types: tpkg}
}

// analyzerByName fetches one analyzer from the suite.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name     string // test case
		analyzer string
		path     string // fixture import path
		src      string
		want     int      // number of findings
		contains []string // substrings expected in messages
	}{
		{
			name:     "interval literal flagged",
			analyzer: "interval-canon",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/model"

func bad() model.Interval { return model.Interval{Start: 5, End: 1} }
`,
			want:     1,
			contains: []string{"NewInterval"},
		},
		{
			name:     "constructor and zero literal conform",
			analyzer: "interval-canon",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/model"

func good() model.Interval {
	var zero model.Interval
	_ = zero
	_ = model.Interval{}
	return model.NewInterval(1, 5)
}
`,
			want: 0,
		},
		{
			name:     "interval escape hatch honored",
			analyzer: "interval-canon",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/model"

// lint:interval-ok sentinel by design
var sentinel = model.Interval{Start: 9, End: 0}
`,
			want: 0,
		},
		{
			name:     "literal inside model package conforms",
			analyzer: "interval-canon",
			path:     modelPath,
			src: `package model

type Timestamp = int64
type Interval struct{ Start, End Timestamp }

func mk() Interval { return Interval{Start: 1, End: 2} }
`,
			want: 0,
		},
		{
			name:     "map range into ordered sink flagged",
			analyzer: "map-order",
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			name:     "bare panic flagged",
			analyzer: "panic-policy",
			path:     ModulePath + "/internal/fix",
			src: `package fix

func bad() {
	panic("boom")
}
`,
			want:     1,
			contains: []string{"lint:panic-ok"},
		},
		{
			name:     "annotated panic conforms",
			analyzer: "panic-policy",
			path:     ModulePath + "/internal/fix",
			src: `package fix

func good(n int) {
	if n < 0 {
		// lint:panic-ok documented precondition
		panic("n must be non-negative")
	}
}
`,
			want: 0,
		},
		{
			name:     "same-line panic annotation conforms",
			analyzer: "panic-policy",
			path:     ModulePath + "/internal/fix",
			src: `package fix

func good(err error) {
	if err != nil {
		panic(err) // lint:panic-ok cannot fail
	}
}
`,
			want: 0,
		},
		{
			name:     "unaccounted dynamic field flagged",
			analyzer: "size-accounting",
			path:     ModulePath + "/internal/tif",
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
			path:     ModulePath + "/internal/tif",
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
			path:     ModulePath + "/internal/tif",
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
			path:     ModulePath + "/internal/fix",
			src: `package fix

type Index struct {
	lists [][]uint32
}

func (ix *Index) SizeBytes() int64 { return 0 }
`,
			want: 0,
		},
		{
			name:     "undocumented exported symbols flagged",
			analyzer: "doc-exported",
			path:     modelPath,
			src: `package model

type Exposed struct{}

func Helper() {}

func (e Exposed) Method() {}
`,
			want:     3,
			contains: []string{"Exposed", "Helper", "Method"},
		},
		{
			name:     "documented and unexported symbols conform",
			analyzer: "doc-exported",
			path:     modelPath,
			src: `package model

// Exposed is documented.
type Exposed struct{}

// Helper is documented.
func Helper() {}

func hidden() {}
`,
			want: 0,
		},
		{
			name:     "doc rule skips other internal packages",
			analyzer: "doc-exported",
			path:     ModulePath + "/internal/fix",
			src: `package fix

func Undocumented() {}
`,
			want: 0,
		},
		{
			name:     "guarded field read without lock flagged",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync"

type Store struct {
	mu sync.RWMutex
	// irlint:guarded-by mu
	data map[int]int
}

func (s *Store) Unlocked() int { return len(s.data) }
`,
			want:     1,
			contains: []string{"Store.data", "read"},
		},
		{
			name:     "guarded field write under read lock flagged",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync"

type Store struct {
	mu sync.RWMutex
	// irlint:guarded-by mu
	data map[int]int
}

func (s *Store) Weak(k, v int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.data[k] = v
}
`,
			want:     1,
			contains: []string{"write", "mu.Lock"},
		},
		{
			name:     "locked accesses and locked-contract helper conform",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync"

type Store struct {
	mu sync.RWMutex
	// irlint:guarded-by mu
	data map[int]int
}

func (s *Store) Read() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

func (s *Store) Write(k, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[k] = v
}

func (s *Store) ScopedRead() int {
	s.mu.RLock()
	n := len(s.data)
	s.mu.RUnlock()
	return n
}

// helper requires the caller to hold mu.
//
// irlint:locked mu
func (s *Store) helper() int { return len(s.data) }
`,
			want: 0,
		},
		{
			name:     "lock-guard escape hatch honored",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync"

type Store struct {
	mu sync.RWMutex
	// irlint:guarded-by mu
	data map[int]int
}

func (s *Store) Snapshot() int {
	// lint:guard-ok single-threaded setup phase, no concurrency yet
	return len(s.data)
}
`,
			want: 0,
		},
		{
			// The executor pattern of the root exec.go: the batch entry
			// point takes RLock, reads guarded fields to snapshot a view,
			// and fans work out through worker closures textually inside
			// the locked region. The textual-order replay treats those
			// closure-body accesses as lock-held — the lock genuinely
			// outlives the workers because the fan-out joins before the
			// deferred unlock runs.
			name:     "executor fan-out closure inside locked region conforms",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync"

type Engine struct {
	mu sync.RWMutex
	// irlint:guarded-by mu
	data map[int]int
	// irlint:guarded-by mu
	pool *Pool
}

type Pool struct{ workers int }

func (p *Pool) Map(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() { defer wg.Done(); fn(0) }()
	}
	wg.Wait()
}

func (e *Engine) SetPool(p *Pool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pool = p
}

func (e *Engine) Batch(n int) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]int, n)
	e.pool.Map(n, func(i int) {
		out[i] = e.data[i]
	})
	return out
}
`,
			want: 0,
		},
		{
			name:     "fan-out closure touching guarded state without lock flagged",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync"

type Engine struct {
	mu sync.RWMutex
	// irlint:guarded-by mu
	data map[int]int
}

func (e *Engine) BadBatch(n int) []int {
	out := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = e.data[i]
		}(i)
	}
	wg.Wait()
	return out
}
`,
			want:     1,
			contains: []string{"Engine.data"},
		},
		{
			name:     "guarded-by naming a missing mutex flagged",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

type Broken struct {
	// irlint:guarded-by lock
	data int
}
`,
			want:     1,
			contains: []string{"no sync.Mutex"},
		},
		{
			name:     "snapshot-via field read outside accessor flagged",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct {
	// irlint:snapshot-via Snapshot,publish
	gen atomic.Pointer[Gen]
}

func (s *Store) Snapshot() *Gen  { return s.gen.Load() }
func (s *Store) publish(g *Gen)  { s.gen.Store(g) }
func (s *Store) Sneaky() *Gen    { return s.gen.Load() }
`,
			want:     1,
			contains: []string{"Store.gen", "snapshot-via", "Snapshot"},
		},
		{
			name:     "snapshot-via field reached through a variable flagged",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct {
	// irlint:snapshot-via Snapshot,publish
	gen atomic.Pointer[Gen]
}

func (s *Store) Snapshot() *Gen { return s.gen.Load() }
func (s *Store) publish(g *Gen) { s.gen.Store(g) }

func drain(s *Store) { s.gen.Store(nil) }
`,
			want:     1,
			contains: []string{"Store.gen", "outside its accessor"},
		},
		{
			name:     "snapshot-via accessors and routed callers conform",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct {
	// irlint:snapshot-via Snapshot,publish
	gen atomic.Pointer[Gen]
}

func (s *Store) Snapshot() *Gen { return s.gen.Load() }
func (s *Store) publish(g *Gen) { s.gen.Store(g) }

func (s *Store) Len() int { return s.Snapshot().n }

func swap(s *Store, g *Gen) { s.publish(g) }
`,
			want: 0,
		},
		{
			name:     "snapshot-via escape hatch honored",
			analyzer: "lock-guard",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct {
	// irlint:snapshot-via Snapshot,publish
	gen atomic.Pointer[Gen]
}

func (s *Store) Snapshot() *Gen { return s.gen.Load() }
func (s *Store) publish(g *Gen) { s.gen.Store(g) }

func (s *Store) debugPeek() *Gen {
	// lint:guard-ok test-only introspection, no publication
	return s.gen.Load()
}
`,
			want: 0,
		},
		{
			name:     "aliased list mutations flagged",
			analyzer: "alias-mutation",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import (
	"sort"

	"repro/internal/postings"
	"repro/internal/tif"
)

func bad(ix *tif.Index) {
	l := ix.List(0)
	l[0] = postings.Posting{}
	l.Sort()
	sort.Slice(l, func(i, j int) bool { return l[i].ID < l[j].ID })
}
`,
			want:     3,
			contains: []string{"read-only", "Clone"},
		},
		{
			name:     "append to aliased list through a copy flagged",
			analyzer: "alias-mutation",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import (
	"repro/internal/postings"
	"repro/internal/tif"
)

func bad(ix *tif.Index) postings.List {
	l := ix.List(0)
	m := l
	return append(m, postings.Posting{ID: 7})
}
`,
			want:     1,
			contains: []string{"append"},
		},
		{
			name:     "cloned and locally built lists conform",
			analyzer: "alias-mutation",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import (
	"repro/internal/postings"
	"repro/internal/tif"
)

func good(ix *tif.Index) postings.List {
	l := ix.List(0).Clone()
	l.Sort()
	return append(l, postings.Posting{ID: 9})
}

func goodLocal() postings.List {
	var l postings.List
	l.Append(postings.Posting{ID: 1})
	l.Sort()
	return l
}
`,
			want: 0,
		},
		{
			name:     "alias escape hatch honored",
			analyzer: "alias-mutation",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/postings"

func teardown() {
	l := postings.Shared()
	// lint:alias-ok benchmark rebuilds the index afterwards
	l.Sort()
}
`,
			want: 0,
		},
		{
			name:     "owning package may mutate its own lists",
			analyzer: "alias-mutation",
			path:     tifPath,
			src: `package tif

import "repro/internal/postings"

func rebuild() {
	l := postings.Shared()
	l.Sort()
}
`,
			want: 0,
		},
		{
			name:     "addition on discretized value flagged",
			analyzer: "domain-bounds",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/domain"

func bad(d domain.Domain, t int64) uint32 {
	v := d.Disc(t)
	return v + 1
}
`,
			want:     1,
			contains: []string{"2^m-1", "Prefix"},
		},
		{
			name:     "shift on tuple-assigned discretized value flagged",
			analyzer: "domain-bounds",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/domain"

func bad(d domain.Domain) uint32 {
	lo, hi := d.DiscInterval(1, 9)
	_ = hi
	return lo << 1
}
`,
			want:     1,
			contains: []string{"<<"},
		},
		{
			name:     "increment of discretized value flagged",
			analyzer: "domain-bounds",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/domain"

func bad(d domain.Domain, t int64) uint32 {
	v := d.Disc(t)
	v++
	return v
}
`,
			want:     1,
			contains: []string{"++"},
		},
		{
			name:     "comparisons and parity checks on discretized values conform",
			analyzer: "domain-bounds",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/domain"

func good(d domain.Domain, t int64) bool {
	v := d.Disc(t)
	w := d.Prefix(3, v)
	return v%2 == 1 && w < d.Cells()
}
`,
			want: 0,
		},
		{
			name:     "domain escape hatch honored",
			analyzer: "domain-bounds",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/domain"

func proven(d domain.Domain, t int64) uint32 {
	v := d.Disc(t)
	if v%2 == 0 {
		// lint:domain-ok v is even, so v+1 <= Cells()-1
		return v + 1
	}
	return v
}
`,
			want: 0,
		},
		{
			name:     "non-exhaustive method switch with plain default flagged",
			analyzer: "method-exhaustiveness",
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
			src: `package fix

type machine struct{}

func (m *machine) StartStage(s int) int { return s }

func fine(m *machine) {
	_ = m.StartStage(1)
}
`,
			want: 0,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := checkFixture(t, tc.path, tc.src)
			diags := analyzerByName(t, tc.analyzer).Run(p)
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
				if d.Pos.Line <= 0 || d.Pos.Filename == "" {
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
	p := checkFixture(t, ModulePath+"/internal/fix", `package fix

func b() { panic("two") }

func a() { panic("one") }
`)
	diags := Run([]*Package{p}, []*Analyzer{AnalyzerPanicPolicy()})
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2", len(diags))
	}
	if diags[0].Pos.Line > diags[1].Pos.Line {
		t.Errorf("diagnostics not sorted: %v", diags)
	}
}

// TestLoadRepository smoke-tests the loader against the live module: it
// must load every package with type information and the suite must be
// clean (the same gate CI enforces via cmd/irlint). LINTING.md's ledger
// must also count the annotations the tree carries.
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
		byPath[p.Path] = true
		if p.Types == nil {
			t.Errorf("%s: no type information", p.Path)
		}
	}
	for _, want := range []string{ModulePath, modelPath, ModulePath + "/internal/hint"} {
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
	"interval-canon":        {intervalDirective},
	"map-order":             {mapOrderDirective},
	"panic-policy":          {panicDirective},
	"size-accounting":       {sizeDirective},
	"doc-exported":          nil,
	"lock-guard":            {guardedByMarker, lockedMarker, guardDirective, snapshotViaMarker},
	"alias-mutation":        {aliasDirective},
	"domain-bounds":         {domainDirective},
	"method-exhaustiveness": {methodDirective},
	"span-end":              {spanDirective},
	"ctx-flow":              {ctxRootDirective},
	"goroutine-exit":        {goroutineExitsDirective},
	"publish-freeze":        {freezeDirective},
	"metric-hygiene":        {metricDirective},
}

// checkLedgerAnnotations compares the Annotations column of LINTING.md's
// ledger, and the total its prose gives, with the markers counted in the
// comments of every Go file of the module at root outside the linter's
// own package, test files included.
func checkLedgerAnnotations(t *testing.T, root string) {
	t.Helper()
	for _, a := range Analyzers() {
		if _, ok := annotationMarkers[a.Name]; !ok {
			t.Errorf("analyzer %s has no entry in annotationMarkers", a.Name)
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
	rows := 0
	for _, line := range strings.Split(string(doc), "\n") {
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
	for _, f := range p.Files {
		ast.Walk(loopDeferVisitor{fset: p.Fset, out: &out}, f)
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
	p := checkFixture(t, ModulePath+"/internal/fix", `package fix

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

// TestLoadSubtree checks a pattern narrower than the module: postings
// imports internal/model, which the pattern does not match, so Load must
// type-check that import without returning or linting it.
func TestLoadSubtree(t *testing.T) {
	t.Parallel()
	pkgs, err := Load("../../..", []string{"./internal/postings"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != postingsPath {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.Path)
		}
		t.Fatalf("Load returned %v, want only %s", got, postingsPath)
	}
	if pkgs[0].Types == nil || !pkgs[0].Types.Complete() {
		t.Errorf("%s: incomplete type information", postingsPath)
	}
	if diags := Run(pkgs, Analyzers()); len(diags) > 0 {
		t.Errorf("postings not lint-clean:\n%s", diagList(diags))
	}
}
