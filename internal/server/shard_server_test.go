package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	temporalir "repro"
	"repro/internal/tenant"
	"repro/internal/testutil"
)

// buildShardedEngine mirrors buildEngine's tiny corpus on a 2-shard
// engine, so handler-level expectations carry over unchanged.
func buildShardedEngine(t testing.TB) *temporalir.Engine {
	t.Helper()
	b := temporalir.NewBuilder()
	b.Add(0, 100, "alpha", "beta")
	b.Add(50, 150, "alpha", "gamma")
	b.Add(200, 300, "beta")
	sh, err := b.BuildSharded(temporalir.IRHintPerf, temporalir.Options{}, temporalir.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// errBody decodes the JSON error body shared by every rejection.
func errBody(t *testing.T, resp *http.Response) (msg string, retryMs int64) {
	t.Helper()
	var out struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	return out.Error, out.RetryAfterMS
}

// TestOverloadRetryHintScalesWithCapacity: the 503 hint is derived from
// in-flight pressure (per-query budget over slot count), so a wide gate
// hints a shorter wait than a narrow one — and both are millisecond
// precision in the body while the header stays a whole-second ceiling.
func TestOverloadRetryHintScalesWithCapacity(t *testing.T) {
	hintFor := func(maxInFlight int) int64 {
		srv := NewWithOptions(buildEngine(t), Options{MaxInFlight: maxInFlight})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for i := 0; i < maxInFlight; i++ {
			if !srv.gate.TryAcquire() {
				t.Fatal("could not fill the admission gate")
			}
		}
		resp, err := http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("saturated search: status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 missing Retry-After header")
		}
		_, ms := errBody(t, resp)
		return ms
	}
	narrow := hintFor(2) // 5s default budget / 2 slots, clamped to 1s
	wide := hintFor(200) // 5s / 200 = 25ms
	if narrow < wide {
		t.Fatalf("narrow-gate hint %dms < wide-gate hint %dms; hint is not load-derived", narrow, wide)
	}
	for _, ms := range []int64{narrow, wide} {
		if ms < minRetryHint.Milliseconds() || ms > maxRetryHint.Milliseconds() {
			t.Fatalf("hint %dms outside [%v, %v]", ms, minRetryHint, maxRetryHint)
		}
	}
	if wide >= 1000 {
		t.Fatalf("wide-gate hint %dms still the old one-second floor", wide)
	}
}

// TestRateLimitRetryHintMillisecond: a token-bucket wait of ~100ms must
// reach the client as ~100ms in retry_after_ms, not floored to a full
// second; the header keeps its whole-second contract.
func TestRateLimitRetryHintMillisecond(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{
		TenantLimits: func(id string) tenant.Limits {
			return tenant.Limits{QueriesPerSec: 10, Burst: 1}
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	url := ts.URL + "/search?start=0&end=100&q=alpha"
	resp := tenantGet(t, url, "throttled")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("burst query: status %d, want 200", resp.StatusCode)
	}
	resp = tenantGet(t, url, "throttled")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate query: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After header = %q, want the 1s ceiling", ra)
	}
	_, ms := errBody(t, resp)
	if ms <= 0 || ms >= 1000 {
		t.Fatalf("429 retry_after_ms = %d, want a sub-second token-bucket wait", ms)
	}
}

// TestRegistryFullRetryHint: rejecting a tenant the registry cannot
// admit also carries the machine-readable hint.
func TestRegistryFullRetryHint(t *testing.T) {
	srv := NewWithOptions(buildEngine(t), Options{MaxTenants: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := tenantGet(t, ts.URL+"/search?start=0&end=100&q=alpha", "overflow")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow tenant: status %d, want 429", resp.StatusCode)
	}
	_, ms := errBody(t, resp)
	// Without a spill directory the slot cannot free soon: the hint is
	// the full ceiling, not an optimistic few milliseconds.
	if ms != maxRetryHint.Milliseconds() {
		t.Fatalf("registry-full retry_after_ms = %d, want %d", ms, maxRetryHint.Milliseconds())
	}
}

// TestShardedServer serves a sharded seed end to end: searches answer
// exactly like the single-store server, /stats gains the shard map and
// coordinator counters, /metrics exposes the tir_shard_* family, and a
// second tenant gets a sharded sibling engine.
func TestShardedServer(t *testing.T) {
	srv := New(buildShardedEngine(t))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/search?start=0&end=100&q=alpha")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Count int `json:"count"`
		Hits  []struct {
			ID temporalir.ObjectID `json:"id"`
		} `json:"hits"`
		Partial bool `json:"partial"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Count != 2 || out.Partial {
		t.Fatalf("sharded search: status %d, body %+v", resp.StatusCode, out)
	}
	if out.Hits[0].ID != 0 || out.Hits[1].ID != 1 {
		t.Fatalf("sharded search hits = %+v, want ids 0,1", out.Hits)
	}

	// Ranked and batch paths answer through the coordinator too.
	resp, err = http.Get(ts.URL + "/search?start=0&end=100&q=alpha&k=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded topk: status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/search/batch", "application/json",
		strings.NewReader(`{"start":0,"end":100,"queries":["alpha","beta"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded batch: status %d, want 200", resp.StatusCode)
	}

	// /stats exposes the shard rows and coordinator counters.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Shards []struct {
			Shard   int `json:"shard"`
			Objects int `json:"objects"`
		} `json:"shards"`
		Coordinator struct {
			Shards    int    `json:"shards"`
			Partition string `json:"partition"`
			Queries   uint64 `json:"queries"`
		} `json:"coordinator"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Shards) != 2 || stats.Coordinator.Shards != 2 {
		t.Fatalf("/stats shard view: %+v", stats)
	}
	if stats.Coordinator.Queries == 0 {
		t.Fatal("/stats coordinator did not count the searches")
	}
	total := 0
	for _, sh := range stats.Shards {
		total += sh.Objects
	}
	if total != 3 {
		t.Fatalf("/stats shard objects sum to %d, want 3", total)
	}

	// /metrics exposes the shard family.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"tir_shard_queries_total",
		"tir_shard_cut_total",
		"tir_shard_pruned_total",
		`tir_shard_objects{shard="0"}`,
		`tir_shard_objects{shard="1"}`,
		`tir_shard_compactions_total{shard="0"}`,
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// A second tenant's engine is a sharded sibling: its stats carry the
	// shard view and its writes/reads work.
	resp = tenantPost(t, ts.URL+"/objects", "acme", `{"start":10,"end":20,"terms":["delta"]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant insert on sharded sibling: status %d, want 201", resp.StatusCode)
	}
	resp = tenantGet(t, ts.URL+"/stats", "acme")
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Shards) != 2 {
		t.Fatalf("sibling tenant is not sharded: %+v", stats)
	}
	resp = tenantGet(t, ts.URL+"/search?start=0&end=100&q=delta", "acme")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"count":1`) {
		t.Fatalf("sibling tenant search: status %d body %s", resp.StatusCode, body)
	}
}

// TestShardedServerPartialContract drives a sharded seed with a 1ns
// per-shard deadline over HTTP: every response must be a complete 200,
// a 200 with the explicit partial fields, or a 504 — and the deadline
// must actually bite at least once across the sweep.
func TestShardedServerPartialContract(t *testing.T) {
	cfg := testutil.CollectionConfig{N: 1500, DomainLo: 0, DomainHi: 20000, Dict: 10, MaxDesc: 5, Seed: 321}
	c := testutil.RandomCollection(cfg)
	b := temporalir.NewBuilder()
	for i := range c.Objects {
		o := &c.Objects[i]
		terms := make([]string, len(o.Elems))
		for j, e := range o.Elems {
			terms[j] = fmt.Sprintf("t%03d", e)
		}
		b.Add(o.Interval.Start, o.Interval.End, terms...)
	}
	sh, err := b.BuildSharded(temporalir.TIF, temporalir.Options{}, temporalir.ShardedOptions{
		Shards: 4, ShardTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sh))
	defer ts.Close()

	nonComplete := 0
	for i := 0; i < 60; i++ {
		resp, err := http.Get(ts.URL + fmt.Sprintf("/search?start=0&end=20000&q=t%03d", i%10))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			nonComplete++
			resp.Body.Close()
		case http.StatusOK:
			var out struct {
				Partial   bool  `json:"partial"`
				ShardsCut []int `json:"shards_cut"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if out.Partial != (len(out.ShardsCut) > 0) {
				t.Fatalf("request %d: partial=%v but shards_cut=%v", i, out.Partial, out.ShardsCut)
			}
			if out.Partial {
				nonComplete++
			}
		default:
			resp.Body.Close()
			t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if nonComplete == 0 {
		t.Fatal("1ns shard deadline never produced a partial or 504 across 60 requests")
	}
}
