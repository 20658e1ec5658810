package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	temporalir "repro"
	"repro/internal/obs"
)

// buildBigEngine builds an engine over n broadly-overlapping objects,
// big enough that a full-range ranked search takes real time.
func buildBigEngine(t *testing.T, n int) *temporalir.Engine {
	t.Helper()
	b := temporalir.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(int64(i%1000), int64(i%1000+50), "alpha", fmt.Sprintf("w%d", i%50))
	}
	engine, err := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// TestReversedIntervalRejected is the regression test for the
// start > end validation gap: GET /search and GET /timeline silently
// canonicalized reversed intervals while the POST endpoints answered
// 400. All four must reject.
func TestReversedIntervalRejected(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		do   func() (*http.Response, error)
	}{
		{"GET /search", func() (*http.Response, error) {
			return http.Get(ts.URL + "/search?start=10&end=0&q=alpha")
		}},
		{"GET /timeline", func() (*http.Response, error) {
			return http.Get(ts.URL + "/timeline?start=10&end=0&q=alpha")
		}},
		{"POST /search/batch", func() (*http.Response, error) {
			return http.Post(ts.URL+"/search/batch", "application/json",
				strings.NewReader(`{"start":10,"end":0,"queries":["alpha"]}`))
		}},
		{"POST /objects", func() (*http.Response, error) {
			return http.Post(ts.URL+"/objects", "application/json",
				strings.NewReader(`{"start":10,"end":0,"terms":["alpha"]}`))
		}},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with start>end: status %d, want 400", tc.name, resp.StatusCode)
		}
		if err != nil || !strings.Contains(body.Error, "start 10 > end 0") {
			t.Errorf("%s: error body %q does not name the reversed interval", tc.name, body.Error)
		}
	}
}

// TestRankedSearchTimeout504 is the regression test for the ranked
// path's deadline bug: SearchTopK used to run to completion after a
// single upfront ctx check, so a timeout expiring mid-evaluation never
// produced 504. The timeout here is far too short for a full-range
// ranked scan over the big engine but comfortably outlives request
// parsing, so only mid-evaluation cancellation can answer 504. k is the
// whole corpus, which keeps every candidate in the heap: tens of
// milliseconds of ranking, so the deadline also wins when a loaded
// machine wakes the waiting goroutine a scheduler quantum late (at k = 5
// the scan is 2–5 ms since ISSUE 17, and that race was lost one tier-1
// run in four).
func TestRankedSearchTimeout504(t *testing.T) {
	// The select between evaluation and the deadline needs the timer to
	// actually wake the waiting goroutine while the evaluator is busy;
	// on a single-P runtime a tight scoring loop can outrun the 10ms
	// preemption window, so give the scheduler a second P.
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(old)
	}
	engine := buildBigEngine(t, 120000)
	engine.SetParallelism(1)
	srv := NewWithOptions(engine, Options{QueryTimeout: time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/search?start=0&end=2000&q=alpha&k=120000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("ranked search past deadline: status %d, want 504", resp.StatusCode)
	}
}

// TestTimelineAdmissionControl is the regression test for /timeline
// bypassing admission control: with the semaphore full it must answer
// 503 like /search, not evaluate anyway.
func TestTimelineAdmissionControl(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{MaxInFlight: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if !srv.gate.TryAcquire() || !srv.gate.TryAcquire() {
		t.Fatal("could not fill the admission gate")
	}

	resp, err := http.Get(ts.URL + "/timeline?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated timeline: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}

	srv.gate.Release()
	resp, err = http.Get(ts.URL + "/timeline?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: status %d, want 200", resp.StatusCode)
	}
}

// TestMetricsEndToEnd drives one query, one admission rejection, and
// one compaction through the HTTP surface, then asserts /metrics
// reflects all three and /debug/slow captured the query's trace.
func TestMetricsEndToEnd(t *testing.T) {
	observer := obs.NewObserver(obs.Config{SlowThreshold: -1}) // capture every trace
	srv := NewWithOptions(buildEngine(t), Options{MaxInFlight: 2, Obs: observer})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One served search.
	resp, err := http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d", resp.StatusCode)
	}

	// One admission rejection.
	if !srv.gate.TryAcquire() || !srv.gate.TryAcquire() {
		t.Fatal("could not fill the admission gate")
	}
	resp, err = http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated search: status %d, want 503", resp.StatusCode)
	}
	srv.gate.Release()
	srv.gate.Release()

	// One compaction (needs pending work to not no-op).
	resp, err = http.Post(ts.URL+"/objects", "application/json",
		strings.NewReader(`{"start":5,"end":6,"terms":["delta"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	text, _ := io.ReadAll(resp.Body)
	page := string(text)
	for _, want := range []string{
		"# TYPE tir_queries_total counter",
		`tir_queries_total{method="search"} 1`,
		"# TYPE tir_query_seconds histogram",
		`tir_query_seconds_count{method="search"} 1`,
		`tir_admission_total{result="rejected"} 1`,
		`tir_admission_total{result="accepted"} 1`,
		"tir_compactions_total 1",
		"tir_engine_objects 4",
		"tir_inflight_queries 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, page)
		}
	}

	slow := getJSON(t, ts.URL+"/debug/slow", http.StatusOK)
	entries, _ := slow["entries"].([]any)
	if len(entries) == 0 {
		t.Fatal("/debug/slow has no entries with an always-capture threshold")
	}
	methods := map[string]bool{}
	for _, e := range entries {
		m, _ := e.(map[string]any)
		method, _ := m["method"].(string)
		methods[method] = true
	}
	if !methods["search"] {
		t.Errorf("slow log entries %v lack a 'search' trace", methods)
	}
	// The search trace must carry a per-stage breakdown.
	for _, e := range entries {
		m, _ := e.(map[string]any)
		if m["method"] == "search" {
			stages, _ := m["stages"].([]any)
			if len(stages) == 0 {
				t.Errorf("search trace has no stage breakdown: %v", m)
			}
		}
	}
}

// TestTracingDisabledStillCounts checks metrics work with tracing off
// and the slow log stays empty.
func TestTracingDisabledStillCounts(t *testing.T) {
	observer := obs.NewObserver(obs.Config{SlowThreshold: -1, DisableTracing: true})
	srv := NewWithOptions(buildEngine(t), Options{Obs: observer})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), `tir_queries_total{method="search"} 1`) {
		t.Error("query counter not incremented with tracing disabled")
	}
	slow := getJSON(t, ts.URL+"/debug/slow", http.StatusOK)
	if entries, _ := slow["entries"].([]any); len(entries) != 0 {
		t.Errorf("slow log has %d entries with tracing disabled", len(entries))
	}
}
