package irlint

import (
	"strings"
	"testing"
)

// runV3 runs one whole-program analyzer over a single-package program —
// the fixture-sized version of what Run does for the full module.
func runV3(t *testing.T, analyzer string, p *Package) []Diagnostic {
	t.Helper()
	a := analyzerByName(t, analyzer)
	if a.RunProgram == nil {
		t.Fatalf("analyzer %q is not whole-program", analyzer)
	}
	return a.RunProgram(NewProgram([]*Package{p}))
}

// TestV3Analyzers drives the four dataflow analyzers over firing and
// silent fixtures. Every analyzer must both catch its bug shape and stay
// quiet on the conforming idiom — a lint that cannot stay quiet gets
// annotated into uselessness.
func TestV3Analyzers(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		path     string
		src      string
		want     int
		contains []string
	}{
		// ---- ctx-flow: firing ----
		{
			name:     "ctx receiver passing Background flagged",
			analyzer: "ctx-flow",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "context"

func callee(ctx context.Context) {}

func handler(ctx context.Context) {
	callee(context.Background())
}
`,
			want:     1,
			contains: []string{"dropping the caller's deadline"},
		},
		{
			name:     "detached Background in library code flagged",
			analyzer: "ctx-flow",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "context"

func kick() context.Context {
	return context.Background()
}
`,
			want:     1,
			contains: []string{"detached context root"},
		},
		{
			name:     "ctx-root annotation without reason flagged",
			analyzer: "ctx-flow",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "context"

func kick() context.Context {
	// irlint:ctx-root
	return context.TODO()
}
`,
			want:     1,
			contains: []string{"needs a reason"},
		},
		// ---- ctx-flow: silent ----
		{
			name:     "threaded and derived contexts conform",
			analyzer: "ctx-flow",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import (
	"context"
	"time"
)

func callee(ctx context.Context) {}

func handler(ctx context.Context) {
	callee(ctx)
	sub, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	callee(sub)
}
`,
			want: 0,
		},
		{
			name:     "annotated ctx root conforms",
			analyzer: "ctx-flow",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "context"

func kick() context.Context {
	// irlint:ctx-root process-lifetime background job owns its own deadline
	return context.Background()
}
`,
			want: 0,
		},
		{
			name:     "Background in package main conforms",
			analyzer: "ctx-flow",
			path:     ModulePath + "/cmd/fixmain",
			src: `package main

import "context"

func main() {
	_ = context.Background()
}
`,
			want: 0,
		},
		// ---- goroutine-exit: firing ----
		{
			name:     "fire-and-forget goroutine flagged",
			analyzer: "goroutine-exit",
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			name:     "named worker joined through summaries conforms",
			analyzer: "goroutine-exit",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync"

func worker(wg *sync.WaitGroup) { defer wg.Done() }

func joinAll(wg *sync.WaitGroup) { wg.Wait() }

func spawn() {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(&wg)
	joinAll(&wg)
}
`,
			want: 0,
		},
		{
			name:     "annotated detached goroutine conforms",
			analyzer: "goroutine-exit",
			path:     ModulePath + "/internal/fix",
			src: `package fix

func detached() {
	// irlint:goroutine-exits exits when the buffered send completes; result may be abandoned
	go func() {}()
}
`,
			want: 0,
		},
		// ---- publish-freeze: firing ----
		{
			name:     "direct write after atomic store flagged",
			analyzer: "publish-freeze",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct{ p atomic.Pointer[Gen] }

func (s *Store) swap(g *Gen) {
	s.p.Store(g)
	g.n = 1
}
`,
			want:     1,
			contains: []string{"after it was published"},
		},
		{
			name:     "write after publish helper flagged",
			analyzer: "publish-freeze",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct{ p atomic.Pointer[Gen] }

func (s *Store) publish(g *Gen) { s.p.Store(g) }

func (s *Store) swap(g *Gen) {
	s.publish(g)
	g.n = 1
}
`,
			want:     1,
			contains: []string{"after it was published"},
		},
		{
			name:     "write after publishing inside a view flagged",
			analyzer: "publish-freeze",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Set struct{ view atomic.Pointer[[]*Gen] }

func (t *Set) publish(i int, g *Gen) {
	v := make([]*Gen, 2)
	v[i] = g
	t.view.Store(&v)
}

func (t *Set) swap(g *Gen) {
	t.publish(0, g)
	g.n = 1
}
`,
			want:     1,
			contains: []string{"after it was published"},
		},
		{
			name:     "post-publish mutation through callee flagged",
			analyzer: "publish-freeze",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct{ p atomic.Pointer[Gen] }

func bump(g *Gen) { g.n++ }

func (s *Store) swap(g *Gen) {
	s.p.Store(g)
	bump(g)
}
`,
			want:     1,
			contains: []string{"bump"},
		},
		// ---- publish-freeze: silent ----
		{
			name:     "build fully before publish conforms",
			analyzer: "publish-freeze",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct{ p atomic.Pointer[Gen] }

func (s *Store) swap() {
	g := &Gen{}
	g.n = 1
	s.p.Store(g)
}
`,
			want: 0,
		},
		{
			name:     "post-publish reads conform",
			analyzer: "publish-freeze",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct{ p atomic.Pointer[Gen] }

func size(g *Gen) int { return g.n }

func (s *Store) swap(g *Gen) int {
	s.p.Store(g)
	return size(g) + g.n
}
`,
			want: 0,
		},
		{
			name:     "freeze-ok escape hatch honored",
			analyzer: "publish-freeze",
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "sync/atomic"

type Gen struct{ n int }

type Store struct{ p atomic.Pointer[Gen] }

func (s *Store) swap(g *Gen) {
	s.p.Store(g)
	g.n = 1 // lint:freeze-ok n is a stat never read through snapshots
}
`,
			want: 0,
		},
		// ---- metric-hygiene: firing ----
		{
			name:     "computed metric name flagged",
			analyzer: "metric-hygiene",
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
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
			path:     ModulePath + "/internal/fix",
			src: `package fix

import "repro/internal/obs"

func register(r *obs.Registry) {
	// lint:metric-ok bridging a foreign exporter that owns this name
	r.Gauge("process_start_time_seconds", "help")
}
`,
			want: 0,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := checkFixture(t, tc.path, tc.src)
			diags := runV3(t, tc.analyzer, p)
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
