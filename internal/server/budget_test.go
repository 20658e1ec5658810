package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	temporalir "repro"
	"repro/internal/allocbudget"
)

// discardWriter is a ResponseWriter that keeps nothing, so a handler's
// allocations are its own.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// hitServer serves a corpus where "alpha" over [0, 100] matches n objects.
func hitServer(t *testing.T, n int) (*Server, *temporalir.Engine) {
	t.Helper()
	b := temporalir.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(int64(i%50), int64(i%50+60), "alpha", "beta")
	}
	eng, err := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng), eng
}

// TestAllocBudgetHandleSearch gates GET /search (unranked, tracing on as
// by default) into a discarding writer at 240 hits, and checks that the
// handler's own allocation count — the request's, less the engine's —
// is the same at 960 hits: the reply is encoded without allocating per
// hit.
func TestAllocBudgetHandleSearch(t *testing.T) {
	// searchOps returns one request through the handler and the same
	// search straight through the engine.
	searchOps := func(hits int) (serve, search func()) {
		srv, eng := hitServer(t, hits)
		req := httptest.NewRequest(http.MethodGet, "/search?start=0&end=100&q=alpha", nil)
		w := &discardWriter{header: http.Header{}}
		if srv.ServeHTTP(w, req); w.status != http.StatusOK {
			t.Fatalf("%d hits: status %d", hits, w.status)
		}
		return func() { srv.ServeHTTP(w, req) },
			func() { _, _ = eng.SearchCtx(context.Background(), 0, 100, "alpha") }
	}
	serve, search := searchOps(240)
	allocbudget.Gate(t, "server/handleSearch", serve) // skips under -race
	handlerAllocs := func(serve, search func()) float64 {
		least := math.Inf(1)
		for i := 0; i < 3; i++ {
			least = min(least, testing.AllocsPerRun(200, serve)-testing.AllocsPerRun(200, search))
		}
		return least
	}
	small := handlerAllocs(serve, search)
	if large := handlerAllocs(searchOps(960)); small != large {
		t.Errorf("handler allocates %.0f times at 240 hits but %.0f at 960: its count grows with the hits", small, large)
	}
}
