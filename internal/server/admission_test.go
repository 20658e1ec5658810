package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	temporalir "repro"
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

// TestBackpressure503 fills the admission semaphore directly (the test
// lives in the package for exactly this determinism) and checks that
// search requests bounce with 503 + Retry-After while writes and stats —
// which take no query slot — still pass.
func TestBackpressure503(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{MaxInFlight: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if !srv.gate.TryAcquire() || !srv.gate.TryAcquire() {
		t.Fatal("could not fill the admission gate")
	}

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
	srv.gate.Release()
	resp, err = http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: status %d, want 200", resp.StatusCode)
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
