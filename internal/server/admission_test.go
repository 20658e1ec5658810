package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	temporalir "repro"
	"repro/internal/tenant"
)

func buildEngine(t testing.TB) *temporalir.Engine {
	t.Helper()
	b := temporalir.NewBuilder()
	b.Add(0, 100, "alpha", "beta")
	b.Add(50, 150, "alpha", "gamma")
	b.Add(200, 300, "beta")
	engine, err := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// fillNode takes n of the node's admission slots directly, as the
// default tenant (the test lives in the package for exactly this
// determinism); releaseNode gives n back.
func fillNode(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := srv.adm.Acquire(tenant.DefaultID, tenant.Limits{}, time.Now()); err != nil {
			t.Fatalf("could not fill the node: %v", err)
		}
	}
}

func releaseNode(srv *Server, n int) {
	for i := 0; i < n; i++ {
		srv.adm.Release(tenant.DefaultID)
	}
}

// TestBackpressure503 fills the node's admission slots directly and checks that
// search requests bounce with 503 + Retry-After while writes and stats —
// which take no query slot — still pass.
func TestBackpressure503(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{MaxInFlight: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fillNode(t, srv, 2)

	resp, err := http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated search: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}
	resp, err = http.Post(ts.URL+"/search/batch", "application/json",
		strings.NewReader(`{"start":0,"end":100,"queries":["alpha"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated batch: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats under saturation: status %d, want 200", resp.StatusCode)
	}

	// Draining one slot readmits queries.
	releaseNode(srv, 1)
	resp, err = http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: status %d, want 200", resp.StatusCode)
	}
}

// blockingEngine holds every search inside SearchCtx until the test
// signals release (or the request's deadline fires), so a test can keep
// admission slots taken over HTTP.
type blockingEngine struct {
	*temporalir.Engine
	entered chan struct{}
	release chan struct{}
}

func (b *blockingEngine) SearchCtx(ctx context.Context, start, end temporalir.Timestamp, terms ...string) ([]temporalir.ObjectID, error) {
	select {
	case b.entered <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.Engine.SearchCtx(ctx, start, end, terms...)
}

// TestAdmissionOrder pins the admission contract over HTTP on a 2-slot
// node: a tenant's own caps answer 429 before the node's 503, the node
// answers 503 before the fair share, and a fair-share 429 gives back the
// node slot it would have taken, so another tenant is still admitted.
func TestAdmissionOrder(t *testing.T) {
	eng := &blockingEngine{Engine: buildEngine(t), entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewWithOptions(eng, Options{
		MaxInFlight: 2,
		TenantLimits: func(id string) tenant.Limits {
			switch id {
			case tenant.DefaultID:
				return tenant.Limits{MaxInFlight: 2}
			case "rated":
				return tenant.Limits{QueriesPerSec: 0.01, Burst: 1}
			}
			return tenant.Limits{}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/search?start=0&end=100&q=alpha"
	expect := func(id string, want int, reason string) {
		t.Helper()
		resp := tenantGet(t, url, id)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want || !strings.Contains(string(body), reason) {
			t.Fatalf("tenant %q: status %d body %s, want %d naming %q", id, resp.StatusCode, body, want, reason)
		}
	}
	// hold starts a default-tenant search and waits until it holds its
	// slot inside the engine; its status arrives on held once released.
	held := make(chan int, 2)
	hold := func() {
		go func() {
			resp, err := http.Get(url)
			if err != nil {
				held <- 0
				return
			}
			resp.Body.Close()
			held <- resp.StatusCode
		}()
		<-eng.entered
	}
	unhold := func() {
		t.Helper()
		eng.release <- struct{}{}
		if got := <-held; got != http.StatusOK {
			t.Fatalf("held search: status %d, want 200", got)
		}
	}

	hold()
	hold()
	// The node is full, yet a tenant over its own cap hears 429. A
	// request the node turns away has still spent its token.
	expect(tenant.DefaultID, http.StatusTooManyRequests, tenant.ReasonInFlight)
	expect("rated", http.StatusServiceUnavailable, "overloaded")
	expect("rated", http.StatusTooManyRequests, tenant.ReasonRate)
	expect("free", http.StatusServiceUnavailable, "overloaded")

	unhold()
	// One slot is free and two tenants are active, so each may hold one:
	// "free" is admitted, the default tenant is over its share.
	expect("free", http.StatusOK, "")
	expect(tenant.DefaultID, http.StatusTooManyRequests, tenant.ReasonShare)
	// The share rejection took no node slot.
	expect("free", http.StatusOK, "")
	unhold()

	resp := tenantGet(t, ts.URL+"/metrics", "")
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`tir_tenant_rejected_total{reason="inflight",tenant="default"} 1`,
		`tir_tenant_rejected_total{reason="share",tenant="default"} 1`,
		`tir_tenant_rejected_total{reason="rate",tenant="rated"} 1`,
		`tir_admission_total{result="rejected"} 2`,
		`tir_admission_total{result="accepted"} 4`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestQueryTimeout504 runs the server with a timeout so small it expires
// during request setup, and checks searches answer 504.
func TestQueryTimeout504(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{QueryTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out search: status %d, want 504", resp.StatusCode)
	}
}

// TestSearchBatchEndpoint checks the happy path: rows line up with the
// request and match the single-query endpoint's results.
func TestSearchBatchEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(buildEngine(t)))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/search/batch", "application/json",
		strings.NewReader(`{"start":0,"end":100,"queries":["alpha","beta","alpha gamma","nosuchterm"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, want 200", resp.StatusCode)
	}
	var out struct {
		Count   int `json:"count"`
		Results []struct {
			Hits  []temporalir.ObjectID `json:"hits"`
			Error string                `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 4 || len(out.Results) != 4 {
		t.Fatalf("count=%d results=%d, want 4", out.Count, len(out.Results))
	}
	wantHits := [][]temporalir.ObjectID{{0, 1}, {0}, {1}, nil}
	for i, row := range out.Results {
		if row.Error != "" {
			t.Fatalf("row %d: unexpected error %q", i, row.Error)
		}
		if len(row.Hits) != len(wantHits[i]) {
			t.Fatalf("row %d: hits %v, want %v", i, row.Hits, wantHits[i])
		}
		for k := range row.Hits {
			if row.Hits[k] != wantHits[i][k] {
				t.Fatalf("row %d: hits %v, want %v", i, row.Hits, wantHits[i])
			}
		}
	}
}

// TestSearchBatchValidation checks the rejection paths.
func TestSearchBatchValidation(t *testing.T) {
	ts := httptest.NewServer(New(buildEngine(t)))
	defer ts.Close()
	cases := []string{
		`not json`,
		`{"start":10,"end":0,"queries":["alpha"]}`,
		`{"start":0,"end":10,"queries":[]}`,
		`{"start":0,"end":10,"queries":["..."]}`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/search/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}
