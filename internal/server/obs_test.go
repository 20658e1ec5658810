package server

import (
	"bytes"
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
func buildBigEngine(t *testing.T, n, shards int) *temporalir.Engine {
	t.Helper()
	b := temporalir.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(int64(i%1000), int64(i%1000+50), "alpha", fmt.Sprintf("w%d", i%50))
	}
	engine, err := b.BuildSharded(temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{Shards: shards})
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
// parsing, so only cancellation checked after ranking can answer 504.
// The evaluation runs on the handler's goroutine and checks the deadline
// at its stage boundaries, so no timer has to win a race against it: the
// answer is 504 whatever the scheduler does.
func TestRankedSearchTimeout504(t *testing.T) {
	engine := buildBigEngine(t, 120000, 1)
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

// TestMaxInFlightBoundsAbandonedEvaluations is the regression test for
// evaluations outliving their admission slot. SearchTopKCtx used to rank
// on a goroutine of its own and return when the deadline fired, so the
// handler answered 504 and freed its slot while the scan went on, and
// back-to-back requests stacked scans up past MaxInFlight. Each request
// here outlives its 1ms deadline (a 2–5 ms ranked scan over 120k
// objects). The one about to run is one evaluation; any goroutine with
// an engine frame on its stack is an earlier one still scanning. The
// 4-store seed checks the same bound across the scatter: every planned
// store finishes before the request gives its slot back.
func TestMaxInFlightBoundsAbandonedEvaluations(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d stores", shards), func(t *testing.T) {
			maxInFlightBoundsEvaluations(t, buildBigEngine(t, 120000, shards))
		})
	}
}

func maxInFlightBoundsEvaluations(t *testing.T, engine *temporalir.Engine) {
	engine.SetParallelism(1)
	srv := NewWithOptions(engine, Options{MaxInFlight: 1, QueryTimeout: time.Millisecond})
	req := httptest.NewRequest(http.MethodGet, "/search?start=0&end=2000&q=alpha&k=5", nil)
	stacks := make([]byte, 1<<20)
	evaluating := func() int {
		n := 0
		for _, g := range bytes.Split(stacks[:runtime.Stack(stacks, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("repro.(*Engine).")) {
				n++
			}
		}
		return n
	}
	peak, timedOut := 0, 0
	for i := 0; i < 20; i++ {
		peak = max(peak, 1+evaluating())
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusGatewayTimeout:
			timedOut++
		case http.StatusOK:
		default:
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	if timedOut == 0 {
		t.Fatal("no request outlived its 1ms deadline; the scan is too small to test abandonment")
	}
	if peak > 1 {
		t.Fatalf("%d evaluations ran at once under MaxInFlight 1", peak)
	}
}

// TestSlowLogShapes pins the query shapes the slow log shows, one per
// traced method; the trace stores only their counts and formats them
// when the entry is read.
func TestSlowLogShapes(t *testing.T) {
	observer := obs.NewObserver(obs.Config{SlowThreshold: -1}) // capture every trace
	ts := httptest.NewServer(NewWithOptions(buildEngine(t), Options{Obs: observer}))
	defer ts.Close()
	for _, path := range []string{
		"/search?start=0&end=100&q=alpha",
		"/search?start=0&end=100&q=alpha+beta&k=2",
		"/timeline?start=0&end=100&q=alpha&buckets=3",
	} {
		getJSON(t, ts.URL+path, http.StatusOK)
	}
	resp, err := http.Post(ts.URL+"/search/batch", "application/json",
		strings.NewReader(`{"start":0,"end":100,"queries":["alpha","beta"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	shapes := map[string]string{}
	for _, e := range observer.Slow().Snapshot() {
		shapes[e.Method] = e.Shape
	}
	want := map[string]string{
		"search":       "terms=1",
		"search_topk":  "terms=2 k=2",
		"timeline":     "terms=1 buckets=3",
		"search_batch": "queries=2",
	}
	for method, shape := range want {
		if shapes[method] != shape {
			t.Errorf("%s shape = %q, want %q", method, shapes[method], shape)
		}
	}
}

// TestTimelineAdmissionControl is the regression test for /timeline
// bypassing admission control: with the node full it must answer
// 503 like /search, not evaluate anyway.
func TestTimelineAdmissionControl(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{MaxInFlight: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fillNode(t, srv, 2)

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

	releaseNode(srv, 1)
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
	fillNode(t, srv, 2)
	resp, err = http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated search: status %d, want 503", resp.StatusCode)
	}
	releaseNode(srv, 2)

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
