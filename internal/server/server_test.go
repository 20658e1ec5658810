package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	temporalir "repro"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	b := temporalir.NewBuilder()
	b.Add(0, 100, "alpha", "beta")
	b.Add(50, 150, "alpha", "gamma")
	b.Add(200, 300, "beta")
	engine, err := b.Build(temporalir.IRHintPerf, temporalir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return out
}

func TestSearch(t *testing.T) {
	ts := newTestServer(t)
	out := getJSON(t, ts.URL+"/search?start=0&end=60&q=alpha", http.StatusOK)
	if out["count"].(float64) != 2 {
		t.Errorf("count = %v", out["count"])
	}
	// Conjunction narrows.
	out = getJSON(t, ts.URL+"/search?start=0&end=60&q=alpha+beta", http.StatusOK)
	if out["count"].(float64) != 1 {
		t.Errorf("count = %v", out["count"])
	}
	// Stopwords in free text are dropped, not matched.
	out = getJSON(t, ts.URL+"/search?start=0&end=60&q=the+alpha", http.StatusOK)
	if out["count"].(float64) != 2 {
		t.Errorf("count = %v", out["count"])
	}
	// Unknown term: empty result, not an error.
	out = getJSON(t, ts.URL+"/search?start=0&end=60&q=unseen", http.StatusOK)
	if out["count"].(float64) != 0 {
		t.Errorf("count = %v", out["count"])
	}
}

func TestSearchRanked(t *testing.T) {
	ts := newTestServer(t)
	out := getJSON(t, ts.URL+"/search?start=0&end=60&q=alpha&k=1", http.StatusOK)
	hits := out["hits"].([]any)
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	hit := hits[0].(map[string]any)
	if _, ok := hit["score"]; !ok {
		t.Error("ranked hit missing score")
	}
	// Object 0 fully covers [0,60]; object 1 only [50,60]: 0 ranks first.
	if hit["id"].(float64) != 0 {
		t.Errorf("top hit = %v", hit)
	}
}

func TestSearchValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{
		"/search?end=60&q=alpha",         // missing start
		"/search?start=x&end=60&q=alpha", // bad start
		"/search?start=0&end=y&q=alpha",  // bad end
		"/search?start=0&end=60",         // missing q
		"/search?start=0&end=60&q=the",   // only stopwords
		"/search?start=0&end=60&q=alpha&k=0",
		"/search?start=0&end=60&q=alpha&k=x",
	} {
		getJSON(t, ts.URL+path, http.StatusBadRequest)
	}
}

func TestInsertGetDelete(t *testing.T) {
	ts := newTestServer(t)
	body := `{"start": 400, "end": 500, "terms": ["Fresh, Document!"]}`
	resp, err := http.Post(ts.URL+"/objects", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	var created map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	id := int(created["id"].(float64))

	obj := getJSON(t, fmt.Sprintf("%s/objects/%d", ts.URL, id), http.StatusOK)
	terms := obj["terms"].([]any)
	if len(terms) != 2 || terms[0] != "fresh" || terms[1] != "document" {
		t.Errorf("terms = %v", terms)
	}

	out := getJSON(t, ts.URL+"/search?start=450&end=460&q=fresh", http.StatusOK)
	if out["count"].(float64) != 1 {
		t.Errorf("search after insert: %v", out["count"])
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/objects/%d", ts.URL, id), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	out = getJSON(t, ts.URL+"/search?start=450&end=460&q=fresh", http.StatusOK)
	if out["count"].(float64) != 0 {
		t.Errorf("search after delete: %v", out["count"])
	}
}

func TestInsertValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		`not json`,
		`{"start": 10, "end": 5, "terms": ["x"]}`,
		`{"start": 0, "end": 5, "terms": []}`,
		`{"start": 0, "end": 5, "terms": ["the", "a"]}`,
	} {
		resp, err := http.Post(ts.URL+"/objects", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestObjectErrors(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/objects/999", http.StatusNotFound)
	getJSON(t, ts.URL+"/objects/abc", http.StatusBadRequest)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/objects/999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete missing: status %d", resp.StatusCode)
	}
}

func TestTimeline(t *testing.T) {
	ts := newTestServer(t)
	out := getJSON(t, ts.URL+"/timeline?start=0&end=150&q=alpha&buckets=3", http.StatusOK)
	buckets := out["buckets"].([]any)
	if len(buckets) != 3 {
		t.Fatalf("buckets = %v", buckets)
	}
	first := buckets[0].(map[string]any)
	if first["Count"].(float64) < 1 {
		t.Errorf("first bucket = %v", first)
	}
	// Validation.
	getJSON(t, ts.URL+"/timeline?start=0&end=150&q=alpha&buckets=0", http.StatusBadRequest)
	getJSON(t, ts.URL+"/timeline?start=0&end=150", http.StatusBadRequest)
	getJSON(t, ts.URL+"/timeline?end=150&q=alpha", http.StatusBadRequest)
}

// Concurrent searches against interleaved writes must stay consistent
// (run with -race to check the lock discipline).
func TestConcurrentSearchAndInsert(t *testing.T) {
	ts := newTestServer(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			body := fmt.Sprintf(`{"start": %d, "end": %d, "terms": ["alpha"]}`, 1000+i, 1100+i)
			resp, err := http.Post(ts.URL+"/objects", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	for i := 0; i < 40; i++ {
		resp, err := http.Get(ts.URL + "/search?start=0&end=2000&q=alpha")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d under concurrent writes", resp.StatusCode)
		}
	}
	<-done
	out := getJSON(t, ts.URL+"/search?start=1000&end=1200&q=alpha", http.StatusOK)
	if out["count"].(float64) != 20 {
		t.Errorf("count after concurrent inserts = %v", out["count"])
	}
}

func TestStats(t *testing.T) {
	ts := newTestServer(t)
	out := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if out["objects"].(float64) != 3 {
		t.Errorf("objects = %v", out["objects"])
	}
	if out["method"].(string) != string(temporalir.IRHintPerf) {
		t.Errorf("method = %v", out["method"])
	}
	if out["size_bytes"].(float64) <= 0 {
		t.Errorf("size_bytes = %v", out["size_bytes"])
	}
	// A one-store deployment is a one-shard engine: one shard row, the
	// coordinator's counters, and the shard metric family for shard 0.
	getJSON(t, ts.URL+"/search?start=0&end=100&q=alpha", http.StatusOK)
	out = getJSON(t, ts.URL+"/stats", http.StatusOK)
	rows, _ := out["shards"].([]any)
	coord, _ := out["coordinator"].(map[string]any)
	if len(rows) != 1 || rows[0].(map[string]any)["objects"].(float64) != 3 {
		t.Errorf("shards = %v, want one row holding all 3 objects", out["shards"])
	}
	if coord["shards"] != 1.0 || coord["queries"] != 1.0 {
		t.Errorf("coordinator = %v, want 1 shard and 1 query", coord)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, want := range []string{`tir_shard_objects{shard="0"} 3`, "tir_shard_queries_total 1"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHostileRanges: an interval of more than 2^63−1 time points wraps
// the engine's int64 durations — /timeline panicked sizing its buckets,
// top-k scores came out infinite and encoding/json refused them — so
// every endpoint rejects it; and a huge k no longer reserves a heap of k
// entries before the scan.
func TestHostileRanges(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{
		"/search?start=-9223372036854775808&end=9223372036854775807&q=alpha",
		"/search?start=-1&end=9223372036854775806&q=alpha&k=1",
		"/timeline?start=0&end=9223372036854775807&q=alpha",
	} {
		getJSON(t, ts.URL+path, http.StatusBadRequest)
	}
	for _, req := range []struct{ path, body string }{
		{"/search/batch", `{"start":-9223372036854775808,"end":0,"queries":["alpha"]}`},
		{"/objects", `{"start":-9223372036854775808,"end":0,"terms":["alpha"]}`},
	} {
		resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s over a too-wide interval: status %d, want 400", req.path, resp.StatusCode)
		}
	}
	out := getJSON(t, ts.URL+"/search?start=0&end=100&q=alpha&k=9223372036854775807", http.StatusOK)
	if out["count"].(float64) != 2 {
		t.Errorf("k = MaxInt64: count = %v, want every match", out["count"])
	}
	out = getJSON(t, ts.URL+"/timeline?start=1&end=9223372036854775807&q=alpha&buckets=4", http.StatusOK)
	if buckets := out["buckets"].([]any); len(buckets) != 4 {
		t.Errorf("widest accepted timeline: %d buckets, want 4", len(buckets))
	}
}
