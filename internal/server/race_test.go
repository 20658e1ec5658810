package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tenant"
)

// TestConcurrentSearchInsertDelete hammers the server with parallel
// ranked searches (the path that lazily builds the engine's scorer),
// plain searches, timelines, inserts and deletes. Under -race this is
// the regression test for the concurrency gate the paper's
// multiple-users throughput setting requires.
func TestConcurrentSearchInsertDelete(t *testing.T) {
	ts := newTestServer(t)

	do := func(req *http.Request) {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 30; i++ {
				switch w % 6 {
				case 0: // ranked search: exercises lazy scorer init
					req, _ := http.NewRequest("GET", ts.URL+"/search?start=0&end=300&q=alpha&k=2", nil)
					do(req)
				case 1: // plain search
					req, _ := http.NewRequest("GET", ts.URL+"/search?start=0&end=300&q=beta", nil)
					do(req)
				case 2: // insert
					body := fmt.Sprintf(`{"start":%d,"end":%d,"terms":["alpha","w%d"]}`, i, i+10, w)
					req, _ := http.NewRequest("POST", ts.URL+"/objects", strings.NewReader(body))
					req.Header.Set("Content-Type", "application/json")
					do(req)
				case 3: // timeline
					req, _ := http.NewRequest("GET", ts.URL+"/timeline?start=0&end=300&q=alpha&buckets=5", nil)
					do(req)
				case 4: // stats (Len + SizeBytes)
					req, _ := http.NewRequest("GET", ts.URL+"/stats", nil)
					do(req)
				case 5: // delete (mostly 404s past the first few ids — fine)
					req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/objects/%d", ts.URL, i), nil)
					do(req)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// TestSlowSearchDoesNotBlockInsert proves the server no longer holds a
// lock across query evaluation: an insert issued while a slow search is
// still in flight must complete before that search finishes. Under the
// old Server.mu the insert's write lock would queue behind the search's
// read lock until the evaluation ended.
func TestSlowSearchDoesNotBlockInsert(t *testing.T) {
	engine := buildBigEngine(t, 60000, 1)
	engine.SetParallelism(1)
	srv := NewWithOptions(engine, Options{QueryTimeout: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	queries := make([]string, 64)
	for i := range queries {
		queries[i] = "alpha"
	}
	body, _ := json.Marshal(map[string]any{"start": 0, "end": 2000, "queries": queries})

	searchDone := make(chan struct{})
	go func() {
		defer close(searchDone)
		resp, err := http.Post(ts.URL+"/search/batch", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	// Wait until the batch actually holds its admission slot.
	for i := 0; srv.adm.InUse() == 0; i++ {
		if i > 10000 {
			t.Fatal("batch search never acquired an in-flight slot")
		}
		time.Sleep(100 * time.Microsecond)
	}

	resp, err := http.Post(ts.URL+"/objects", "application/json",
		strings.NewReader(`{"start":1,"end":2,"terms":["fresh"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert during slow search: status %d, want 201", resp.StatusCode)
	}
	select {
	case <-searchDone:
		t.Fatal("batch search finished before the insert returned; overlap not demonstrated")
	default:
		// Insert completed while the search was still evaluating: the
		// write path is not serialized behind reads.
	}
	<-searchDone
}

// TestCountersMonotonicUnderEviction scrapes /metrics while a tenant is
// evicted and reloaded over and over: no scrape reads an engine counter
// lower than the scrape before it.
func TestCountersMonotonicUnderEviction(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{SpillDir: t.TempDir()})
	do := func(method, url, body string) int {
		req := httptest.NewRequest(method, url, strings.NewReader(body))
		req.Header.Set(tenant.Header, "acme")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	do(http.MethodPost, "/objects", `{"start":1,"end":2,"terms":["alpha"]}`)
	do(http.MethodPost, "/admin/compact", "")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[string]float64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			for _, line := range strings.Split(rec.Body.String(), "\n") {
				name, v, ok := strings.Cut(line, " ")
				if !ok || (name != "tir_compactions_total" && name != "tir_shard_queries_total") {
					continue
				}
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < last[name] {
					t.Errorf("%s read %s after %v", name, v, last[name])
					return
				}
				last[name] = f
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if code := do(http.MethodGet, "/search?start=0&end=10&q=alpha", ""); code != http.StatusOK {
			t.Errorf("search %d: status %d", i, code)
			break
		}
		if err := srv.Registry().Evict("acme"); err != nil {
			t.Errorf("evict %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
